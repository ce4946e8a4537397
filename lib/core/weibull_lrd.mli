(** The closed-form Weibull approximation of the overflow probability
    for [N] homogeneous Gaussian {e exact-LRD} sources (paper eq. 6 and
    Appendix):

    {v
      P(W > B) ~= exp(-J - (1/2) log(4 pi J)),
      J(N, b, c) = N^(2H-1) (c - mu)^(2H) / (2 g sigma^2 kappa(H)^2)
                   * B^(2 - 2H),
      kappa(H)   = H^H (1 - H)^(1-H),   B = N b.
    v}

    It is obtained by substituting the LRD variance growth
    [V(m) ~= g sigma^2 m^(2H)] into the Bahadur–Rao rate function and
    minimising in closed form — so it embodies exactly the
    "LRD changes everything" reasoning (sub-exponential Weibull tail)
    whose practical relevance the paper then refutes.  For [H = 1/2]
    (and [g = 1]) it collapses to the familiar log-linear effective
    bandwidth behaviour. *)

type source = {
  h : float;  (** Hurst parameter, in (1/2, 1) *)
  g : float;  (** the weight g(T_s) of eq. (2); 1 for pure fGn *)
  mu : float;  (** mean cells/frame *)
  variance : float;  (** sigma^2 *)
}

val j : source -> c:float -> b:float -> n:int -> float
(** The Weibull exponent [J(N, b, c)]. *)

val log10_bop : source -> c:float -> b:float -> n:int -> float

val rate : source -> c:float -> b:float -> float
(** The per-source rate [I(c,b) = J / N]:
    [(c - mu)^(2H) b^(2-2H) / (2 g sigma^2 kappa(H)^2)]. *)

val kappa : float -> float
(** [kappa h = h^h (1-h)^(1-h)]. *)
