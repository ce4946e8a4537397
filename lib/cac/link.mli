(** One admission-controlled ATM link: static resources (capacity,
    buffer, CLR target) plus the live mix of admitted connections,
    bucketed by source class.

    The link itself is passive bookkeeping — admission logic lives in
    {!Engine}, which consults and mutates the per-class counts. *)

type t

val create :
  id:string -> capacity:float -> buffer:float -> target_clr:float -> t
(** [capacity] in cells/frame, [buffer] in cells (both validated by
    {!Engine.add_link}), [target_clr] in (0, 1).  Raises
    [Invalid_argument] on an out-of-range target. *)

val id : t -> string
val capacity : t -> float
val buffer : t -> float
val target_clr : t -> float

val counts : t -> (Source_class.t * int) list
(** All classes with at least one admitted connection. *)

val connections : t -> int
(** Total admitted connections across classes. *)

val mean_load : t -> float
(** Aggregate mean rate of the admitted mix, cells/frame. *)

val utilization : t -> float
(** [mean_load / capacity]. *)

val buffer_msec : t -> float
(** Maximum drain time of the buffer at full line rate, msec. *)

val add : t -> cls:Source_class.t -> unit
(** Record one more admitted connection of [cls]. *)

val remove : t -> cls:Source_class.t -> unit
(** Remove one connection of [cls]; raises [Invalid_argument] if none
    is admitted. *)
