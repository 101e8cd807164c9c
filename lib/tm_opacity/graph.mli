(** Opacity graphs of histories with mixed transactional and
    non-transactional accesses (Definition 6.3).

    A graph's nodes are the transactions and non-transactional accesses
    of a history.  Its components are a visibility predicate [vis]
    (true for all non-transactional accesses and committed
    transactions, false for aborted and live ones, free for
    commit-pending ones), the lifted happens-before [HB], per-register
    read dependencies [WR], per-register write dependencies [WW]
    (a total order on visible writers, a free choice), and derived
    anti-dependencies [RW].

    [Graph(H)] is the set of all such graphs; strong opacity follows
    from consistency plus the existence of an acyclic member
    (Theorem 6.5). *)

open Tm_model
open Tm_relations

type node = Txn of int | Access of int
(** Indices into [info.txns] / [info.accesses] respectively. *)

type read = {
  r_node : int;  (** the reading node *)
  r_reg : Types.reg;
  r_writer : int;  (** the node read from, or [-1] for [vinit] *)
}
(** A read of a node from another node (or of [vinit]).  Reads of a
    node's own writes are left out: they add no edge. *)

type t = {
  rels : Relations.t;
  nodes : node array;
  node_of_action : int array;
      (** graph node containing each action, [-1] for fence actions *)
  vis : bool array;
  hb : Rel.t;  (** happens-before lifted to nodes *)
  rt : Rel.t;  (** real-time order lifted to nodes (used by Thm 6.6) *)
  ww : (Types.reg * int list) list;
      (** per register, its visible writers in [WW] order *)
  reads : read list;  (** [WR] per register, as reads; [RW] follows *)
  deps : Rel.t;  (** WR ∪ WW ∪ RW, all registers *)
}

type dep = WR | WW | RW

val iter_dep : t -> dep -> (Types.reg -> int -> int -> unit) -> unit
(** [iter_dep g kind f] calls [f x n n'] on each edge [n → n'] of the
    given component on register [x]: [WR] from writer to reader, [WW]
    every ordered pair of the register's total order, [RW] from a
    reader to each writer [WW]-after the one it read from. *)

val node_actions : t -> int -> int list
(** Action indices belonging to a node, ascending. *)

val node_thread : t -> int -> Types.thread_id

val default_vis_pending : Relations.t -> int -> bool
(** The canonical visibility choice for a commit-pending transaction:
    visible iff some other node reads from it (it has "taken effect"). *)

val default_write_stamp : Relations.t -> node -> int
(** The canonical [WW] position of a visible writer: the index by which
    its writes have hit the memory — a non-transactional access's
    request; for a transaction, its completion action (a commit-pending
    one's [txcommit]) or, when earlier, the first read response of
    another node that returns one of its values.  The second case is
    TXVIS of the paper's TL2 proof (Figure 10) as {!Monitor} detects it:
    a TM that writes back before it logs [committed] can be read from
    first.  Partially applied to the relations, it indexes those reads
    once. *)

val commit_request_stamp : Relations.t -> node -> int
(** The earliest [WW] position of a visible writer: as
    {!default_write_stamp}, but a transaction that reached [txcommit]
    is placed at its [txcommit] request.  A TM that writes back between
    [txcommit] and [committed] (TL2, TLRW) serializes its writers
    somewhere in that window; when a committer is descheduled before
    it logs [committed], this end of the window is the one that holds. *)

type cache
(** History-level data shared by every member of [Graph(H)]: the node
    structure and the hb/rt node lifts (plus, lazily, the transitive
    closure of the lifted hb).  The fallback search of
    [Checker.check] computes it once and reuses it across the whole
    vis/ww candidate enumeration. *)

val make_cache : Relations.t -> cache

val cache_hb_closure : cache -> Rel.t
(** The node-level [hb⁺], computed once per cache on first use.  Any
    candidate [WW] order contradicting it is cyclic outright. *)

val build :
  ?cache:cache ->
  ?vis_pending:(int -> bool) ->
  ?write_stamp:(node -> int) ->
  ?ww_orders:(Types.reg * int list) list ->
  Relations.t ->
  (t, string) result
(** Build a member of [Graph(H)] from the given choices (defaulting to
    the canonical ones).  Fails when the choices violate Definition 6.3
    — in particular when a node is read from but not visible.
    [ww_orders] gives, for selected registers, an explicit total order
    (list of node indices, exactly the visible writers of that
    register); other registers fall back to [write_stamp] order. *)

val visible_writers : t -> Types.reg -> int list
(** Node indices of the visible writers of a register, in [WW] order. *)

val is_acyclic : t -> bool
(** No cycle over [HB ∪ WR ∪ WW ∪ RW]. *)

val hb_deps_irreflexive : t -> bool
(** Irreflexivity of [HB ; (WR ∪ WW ∪ RW)] — the side condition of
    Theorem 6.6. *)

val txn_cycle_free : t -> bool
(** Acyclicity of [RT ∪ WR ∪ WW ∪ RW] restricted to transaction nodes —
    the reduced check that Theorem 6.6 shows sufficient for DRF
    histories. *)

val witness : t -> History.t option
(** When the graph is acyclic, the witness history of Lemma 6.4: the
    actions of [H] reordered along a topological sort of the fenced
    graph (nodes plus fence actions, Definition B.5).  Satisfies
    [H ⊑ witness] and [witness ∈ H_atomic]. *)

val pp : Format.formatter -> t -> unit
