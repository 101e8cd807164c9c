open Tm_model
open Tm_relations

(* [matching h1 h2]: for each position of [h2], the index in [h1] of
   the equal action (matched by identifier), when [h2] is a permutation
   of [h1]. *)
let matching (h1 : History.t) (h2 : History.t) =
  let n = History.length h1 in
  if History.length h2 <> n then None
  else begin
    let index1 = Hashtbl.create 64 in
    Array.iteri (fun i (a : Action.t) -> Hashtbl.replace index1 a.Action.id i) h1;
    let order = Array.make n (-1) in
    (* Bijectivity: identifiers are unique in well-formed histories, so
       injectivity follows from equal length + totality; verify anyway. *)
    let seen = Bytes.make n '\000' in
    let ok = ref true in
    Array.iteri
      (fun j (b : Action.t) ->
        match Hashtbl.find_opt index1 b.Action.id with
        | Some i when Action.equal (History.get h1 i) b && Bytes.get seen i = '\000'
          ->
            Bytes.set seen i '\001';
            order.(j) <- i
        | _ -> ok := false)
      h2;
    if !ok then Some order else None
  end

let invert a =
  let inv = Array.make (Array.length a) 0 in
  Array.iteri (fun i p -> inv.(p) <- i) a;
  inv

let permutation_of h1 h2 = Option.map invert (matching h1 h2)

let hb_preserving (rels1 : Relations.t) (_h2 : History.t) theta =
  Rel.respects_order rels1.Relations.hb (invert theta)

let in_relation_of (rels1 : Relations.t) h2 =
  match matching rels1.Relations.info.History.history h2 with
  | None -> false
  | Some order -> Rel.respects_order rels1.Relations.hb order

let in_relation h1 h2 = in_relation_of (Relations.of_history h1) h2
