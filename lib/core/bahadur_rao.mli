(** The Bahadur–Rao asymptotic of the buffer overflow probability for a
    multiplexer of [N] homogeneous Gaussian sources (paper eq. 7,
    following Montgomery & De Veciana):

    [Psi(c, b, N) ~= exp(-N I(c,b) - (1/2) log(4 pi N I(c,b)))].

    Dropping the logarithmic refinement gives the Large-N asymptotic of
    Courcoubetis & Weber (see {!Large_n}). *)

type result = {
  log10_bop : float;  (** log10 of the overflow probability *)
  bop : float;  (** the probability itself (may underflow to 0.) *)
  cts : Cts.analysis;  (** the rate-function analysis behind it *)
}

val evaluate :
  Variance_growth.t -> mu:float -> c:float -> b:float -> n:int -> result
(** Per-source parameterisation: [b] and [c] are buffer and bandwidth
    per source.  Raises [Resilience.Guard.Non_finite] when the CTS scan
    hits its step cap ({!Cts.analysis}'s [capped]). *)

val evaluate_bound :
  Variance_growth.t -> mu:float -> c:float -> b:float -> n:int -> result
(** {!evaluate}, except that a capped scan is priced too.  Its rate is
    then only an upper bound on [I(c,b)], so [log10_bop] is a lower
    bound on the estimate: enough to prove a target missed, never to
    prove it met. *)

val evaluate_total :
  Variance_growth.t ->
  mu:float ->
  total_capacity:float ->
  total_buffer:float ->
  n:int ->
  result
(** Link-level parameterisation: [B = N b], [C = N c]. *)

val curve :
  Variance_growth.t ->
  mu:float ->
  c:float ->
  n:int ->
  buffers:float array ->
  (float * result) array
(** BOP along a per-source buffer sweep — one paper figure series. *)
