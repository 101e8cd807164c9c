(** The strong opacity relation [H1 ⊑ H2] (Definition 4.1).

    [H1 ⊑ H2] holds when [H2] is a permutation of [H1] — the bijection
    matching equal actions — that preserves the happens-before relation
    of [H1]. *)

open Tm_model
open Tm_relations

val permutation_of : History.t -> History.t -> int array option
(** [permutation_of h1 h2] is the bijection [θ] with
    [h1.(i) = h2.(θ(i))], matched by action identifier, or [None] when
    the histories are not permutations of one another. *)

val in_relation : History.t -> History.t -> bool
(** [in_relation h1 h2] decides [h1 ⊑ h2]. *)

val in_relation_of : Relations.t -> History.t -> bool
(** [in_relation_of rels1 h2] decides [h1 ⊑ h2] given the relations of
    [h1], without recomputing them. *)

val hb_preserving : Relations.t -> History.t -> int array -> bool
(** [hb_preserving rels1 h2 theta] checks the second condition of
    Definition 4.1 given precomputed relations of [h1]. *)
