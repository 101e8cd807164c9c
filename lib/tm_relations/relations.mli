(** The history relations of §3 and §4 of the paper, computed over
    action indices of a history.

    The happens-before relation (Definition 3.4) is

    {v hb(H) = (po ∪ cl ∪ af ∪ bf ∪ ⋃x (xpo ; txwr_x))⁺ v}

    Only [hb] is materialized, as one bitset, closed from sparse
    generators with the same closure as that union (chains for po and
    cl, the first later [txbegin]/[fend] per thread for af and bf, and
    one edge per transactional read for xpo;txwr).  The base relations
    are O(1) predicates over per-action indexes; each is a subset of the
    execution order [<_H] (index order), except that in an inconsistent
    history a read may come before its writer. *)

open Tm_model

type t = private {
  info : History.info;
  registers : Types.reg list;  (** registers accessed, ascending *)
  next_txbegin : int array Lazy.t;
      (** index of the next [txbegin] of the same thread, or [max_int];
          only {!xpo} needs it *)
  writer : int array;
      (** the write request each read response reads from, or [-1] *)
  hb : Rel.t;  (** happens-before, Definition 3.4 (transitively closed) *)
}

val compute : History.info -> t
(** Compute the indexes and [hb] of a history. *)

val of_history : History.t -> t
(** [compute] composed with {!History.analyze}. *)

(** {2 Base relations}  Each is [rel t i j] for action indices [i], [j]. *)

val po : t -> int -> int -> bool
(** per-thread order *)

val xpo : t -> int -> int -> bool
(** restricted per-thread order: same thread, with a [txbegin] of that
    thread strictly in between *)

val cl : t -> int -> int -> bool
(** client order: both actions non-transactional *)

val af : t -> int -> int -> bool
(** after-fence: [fbegin] before a later [txbegin] *)

val bf : t -> int -> int -> bool
(** before-fence: completion before a later [fend] *)

val rt : t -> int -> int -> bool
(** real-time order (§4): completion action before a later [txbegin] *)

val writer : t -> int -> int
(** [writer t j] is the [write(x,v)] request that the [ret(v)] response
    [j] of a [read(x)] reads from, or [-1] (not a read response, [vinit],
    or no such write). *)

val wr : t -> int -> int -> bool
(** read dependency [⋃x wr_x]: [wr t i j] iff [writer t j = i]. *)

val txwr : t -> int -> int -> bool
(** transactional read dependency: [wr] with both endpoints
    transactional *)

val registers : t -> Types.reg list

val hb_between : t -> int -> int -> bool
(** [hb_between r i j] iff action [i] happens-before action [j]. *)
