(** Finite binary relations over [{0..n-1}], implemented as bitset
    adjacency rows stored in one flat [int array].

    All the history relations of §3 (program order, client order, fence
    orders, read dependencies, happens-before) are relations over action
    indices; the opacity-graph relations of §6 are relations over graph
    node indices.  This module gives both layers a single efficient
    representation with union, relational composition and transitive
    closure. *)

type t

val create : int -> t
(** [create n] is the empty relation over [{0..n-1}]. *)

val size : t -> int
val add : t -> int -> int -> unit
val mem : t -> int -> int -> bool

val of_pred : int -> (int -> int -> bool) -> t
(** [of_pred n p] contains [(i,j)] iff [p i j]. *)

val copy : t -> t
val union_into : dst:t -> t -> unit
val union : t -> t -> t

val compose : t -> t -> t
(** Relational composition [r ; s]: [(i,k)] iff exists [j] with
    [(i,j) ∈ r] and [(j,k) ∈ s]. *)

val transitive_closure : t -> t
(** [r⁺].  A relation whose pairs all have [i < j] is closed in one
    reverse pass over its rows, O(n + edges) row unions; any other
    relation by Warshall's algorithm over bitset rows. *)

val close_into : t -> unit
(** In-place transitive closure. *)

val is_irreflexive : t -> bool

val is_acyclic : t -> bool
(** No cycle — equivalent to the transitive closure being irreflexive,
    but implemented as an early-exit iterative DFS over the bitset
    rows: O(n + edges), no closure materialization. *)

val reachable : t -> int -> int -> bool
(** [reachable r i j] iff [(i,j) ∈ r⁺] (a path of one or more edges) —
    a single-source search, equivalent to
    [mem (transitive_closure r) i j] without building the closure. *)

val map : t -> size:int -> (int -> int) -> t
(** [map r ~size f] is the image [{(f i, f j) | (i,j) ∈ r}] over
    [{0..size-1}], dropping pairs where [f] is negative on either side
    or maps both sides to the same element. *)

val respects_order : t -> int array -> bool
(** [respects_order r order], for an array listing every element of
    [{0..n-1}] once, iff [i] comes before [j] in [order] for every pair
    [(i,j) ∈ r] with [i ≠ j].  O(n · n/63): no pair is enumerated. *)

val iter_pairs : t -> (int -> int -> unit) -> unit
val fold_pairs : t -> ('a -> int -> int -> 'a) -> 'a -> 'a
val pairs : t -> (int * int) list
val cardinal : t -> int

val successors : t -> int -> int list
val topological_sort : t -> int list option
(** A linear order of [{0..n-1}] compatible with the relation, or
    [None] if it has a cycle. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
