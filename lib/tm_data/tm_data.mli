(** Composable transactional data structures over any TM
    implementation.

    All operations take the caller's transaction descriptor and perform
    only transactional reads and writes, so they {e compose}: several
    operations on several structures run atomically inside one
    transaction, and abort/retry is handled by the caller (typically
    {!Tm_runtime.Atomic_block.Make.run}).

    Structures are laid out in the TM's register file through a bump
    allocator ({!Make.Heap}); pointers are register indices and [0] is
    null — register 0 is reserved by the allocator so that null never
    aliases a real cell.  Nodes allocated inside a transaction are
    reserved transactionally, so aborted attempts leak no cells.

    {!Make.Private_region} packages the paper's privatization idiom as
    an API: a flag-guarded block of registers that a thread can take
    out of transactional circulation (flag transaction + transactional
    fence), access at raw-memory speed, and publish back. *)

module Make (T : Tm_runtime.Tm_intf.S) : sig
  (** Bump allocation of register blocks. *)
  module Heap : sig
    type t

    val create : T.t -> size:int -> t
    (** Manage registers [1..size-1] of the TM instance.  Register 0 is
        never handed out, so that null never aliases a real cell; it
        holds the count of cells allocated inside transactions. *)

    val tm : t -> T.t

    val alloc : t -> int -> int
    (** [alloc h n] reserves [n] fresh registers outside any
        transaction and returns the index of the first.  Thread-safe
        (atomic bump).  Raises [Failure] on exhaustion.  The structures
        below allocate their nodes inside the caller's transaction
        instead, as a transactional write that an abort undoes: a
        retried atomic block reuses the cells of its aborted
        attempts. *)

    val in_use : t -> int
    (** Registers reserved so far (an upper bound while transactions
        that allocate are running). *)
  end

  (** A shared counter. *)
  module Counter : sig
    type t

    val make : Heap.t -> t
    val add : t -> T.txn -> int -> unit
    val get : t -> T.txn -> int
  end

  (** A last-in-first-out stack of integers. *)
  module Stack : sig
    type t

    val make : Heap.t -> t
    val push : t -> T.txn -> int -> unit
    val pop : t -> T.txn -> int option
    val peek : t -> T.txn -> int option
    val is_empty : t -> T.txn -> bool
  end

  (** A first-in-first-out queue of integers. *)
  module Queue : sig
    type t

    val make : Heap.t -> t
    val enqueue : t -> T.txn -> int -> unit
    val dequeue : t -> T.txn -> int option
    val is_empty : t -> T.txn -> bool
  end

  (** An open-hashing map from integers to integers with a fixed bucket
      array and per-bucket singly-linked chains. *)
  module Hashmap : sig
    type t

    val make : Heap.t -> buckets:int -> t
    val put : t -> T.txn -> key:int -> int -> unit
    val get : t -> T.txn -> key:int -> int option
    val remove : t -> T.txn -> key:int -> bool
    (** [remove] returns whether the key was present. *)

    val size : t -> T.txn -> int
  end

  (** The privatization idiom as an API (§1, Figure 1 with the fence).

      A region is a block of registers guarded by a flag.
      Transactional users must access the block through {!guarded},
      which checks the flag inside their transaction (like T2 in
      Figure 1).  An owner takes the region private with
      {!privatize} — a flag transaction followed by a transactional
      fence — after which {!read_private}/{!write_private} access the
      block without any instrumentation; {!publish} hands it back. *)
  module Private_region : sig
    type t

    val make : Heap.t -> size:int -> t
    val size : t -> int

    val guarded : t -> T.txn -> (unit -> 'a) -> 'a option
    (** [guarded r txn f] runs [f] inside the caller's transaction if
        the region is not privatized (per the flag read in this
        transaction); returns [None] if it is. *)

    val read : t -> T.txn -> int -> int
    (** Transactional read of cell [i]; must run under {!guarded}. *)

    val write : t -> T.txn -> int -> int -> unit

    val privatize : t -> thread:int -> unit
    (** Set the flag in a (retried) transaction, then fence: when this
        returns, no transaction that could still access the region is
        active, and its writes have reached memory. *)

    val publish : t -> thread:int -> unit
    (** Clear the flag in a (retried) transaction. *)

    val read_private : t -> thread:int -> int -> int
    (** Uninstrumented access; only sound between {!privatize} and
        {!publish} by the same owner. *)

    val write_private : t -> thread:int -> int -> int -> unit

    val with_private : t -> thread:int -> (unit -> 'a) -> 'a
    (** [privatize], run the function, [publish] (also on exceptions). *)
  end
end
