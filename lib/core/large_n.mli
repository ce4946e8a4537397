(** The Large-N asymptotic of Courcoubetis & Weber:
    [Psi(c, b, N) ~= exp(-N I(c, b))] — the Bahadur–Rao form without
    the logarithmic prefactor.  Kept separate because the paper's
    Fig. 10 compares the two against simulation. *)

type result = {
  log10_bop : float;
  bop : float;
  cts : Cts.analysis;
}

val evaluate :
  Variance_growth.t -> mu:float -> c:float -> b:float -> n:int -> result
