(** Strong-opacity checking (Theorem 6.5 / Lemma 6.4).

    A history [H] is strongly opaque towards [H_atomic] when it is
    consistent and some opacity graph of it is acyclic.  The checker
    first tries the canonical graph (visible = committed ∪ read-from
    pending, [WW] ordered by memory write-back time — the choice made
    in the paper's TL2 proof, §7); when that fails on a small history
    it falls back to an exhaustive search over visibility choices and
    [WW] orders.  Every positive answer carries a witness atomic
    history that has been {e re-verified}: it is checked to be a member
    of [H_atomic] and to be [⊑]-above [H].

    [check_exhaustive_witness] independently decides [∃S ∈ H_atomic.
    H ⊑ S] by enumerating node interleavings — exponential, intended
    as a test oracle on small histories. *)

open Tm_model

type verdict =
  | Opaque of History.t  (** verified witness in [H_atomic] *)
  | Inconsistent of Consistency.read_error list
  | Cyclic of string  (** no acyclic graph found (reason) *)
  | Invalid_graph of string  (** Definition 6.3 violated, e.g. a read
                                 from an invisible node *)

val pp_verdict : Format.formatter -> verdict -> unit

val is_opaque : verdict -> bool

val check : ?exhaustive_limit:int -> History.t -> verdict
(** Decide strong opacity of one history.  [exhaustive_limit] bounds
    the number of graph candidates explored in the fallback search
    (default 20000). *)

val check_canonical : History.t -> verdict
(** The canonical graph, no search — the check that the paper's TL2
    proof performs.  Writers take effect at their completion, or at the
    first read of one of their values when earlier
    ({!Graph.default_write_stamp}); when that graph has a cycle, the
    graph with writers at their [txcommit] requests
    ({!Graph.commit_request_stamp}) is tried too.  Builds one
    {!Relations.t} and verifies the witness against it. *)

val check_exhaustive_witness : ?node_limit:int -> History.t -> bool
(** Oracle: enumerate all interleavings of the history's nodes
    (transactions, accesses, fence actions) and test each candidate for
    [H_atomic] membership and [⊑].  Refuses histories with more than
    [node_limit] nodes (default 9). *)

val strongly_opaque : History.t -> bool
(** [is_opaque (check h)]. *)

val permutations : 'a list -> 'a list Seq.t
(** All permutations of a list, lazily.  Removal of the chosen head is
    positional, so a list with [n] elements always yields [n!]
    permutations even when elements compare equal (duplicate writers
    must not collapse candidate [WW] orders).  Exposed for testing. *)
