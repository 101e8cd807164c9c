(** Striped atomic int arrays for per-thread words written by different
    domains (TL2's per-thread epochs): logical slot [i] lives at
    physical index [i * 8], with the in-between atomics serving
    purely as padding, so two threads' slots do not share a cache line.
    Best-effort false-sharing mitigation for OCaml 5.1, which lacks
    [Atomic.make_contended]. *)

type t

val make : int -> t
(** [make n]: [n] logical slots, all 0.  With ~16-byte atomic blocks,
    neighbouring live slots start ~128 bytes apart (a cache line plus
    its prefetch pair). *)

val get : t -> int -> int
val incr : t -> int -> unit
