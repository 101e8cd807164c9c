open Tm_model
open Tm_relations
open Tm_atomic

type verdict =
  | Opaque of History.t
  | Inconsistent of Consistency.read_error list
  | Cyclic of string
  | Invalid_graph of string

let pp_verdict ppf = function
  | Opaque _ -> Format.fprintf ppf "strongly opaque (witness verified)"
  | Inconsistent errs ->
      Format.fprintf ppf "inconsistent:@.";
      List.iter
        (fun e -> Format.fprintf ppf "  %a@." Consistency.pp_read_error e)
        errs
  | Cyclic msg -> Format.fprintf ppf "no acyclic opacity graph: %s" msg
  | Invalid_graph msg -> Format.fprintf ppf "invalid opacity graph: %s" msg

let is_opaque = function
  | Opaque _ -> true
  | Inconsistent _ | Cyclic _ | Invalid_graph _ -> false

(* Build a graph with the given choices; on success extract and verify
   the witness against the relations already computed. *)
let try_graph (rels : Relations.t) ?cache ?vis_pending ?write_stamp ?ww_orders
    () =
  match Graph.build ?cache ?vis_pending ?write_stamp ?ww_orders rels with
  | Error msg -> Error (`Invalid msg)
  | Ok g ->
      if not (Graph.is_acyclic g) then Error `Cyclic
      else begin
        match Graph.witness g with
        | None -> Error `Cyclic
        | Some s ->
            if Atomic_tm.mem s && Spo_relation.in_relation_of rels s then Ok s
            else Error `Witness_unverified
      end

(* The canonical graph, and when it has a cycle the graph whose writers
   take effect at their txcommit requests: the two ends of the window in
   which a TM that writes back before it logs [committed] serializes. *)
let try_canonical rels =
  match try_graph rels () with
  | Error (`Cyclic | `Witness_unverified) as first -> (
      match
        try_graph rels ~write_stamp:(Graph.commit_request_stamp rels) ()
      with
      | Ok s -> Ok s
      | Error _ -> first)
  | r -> r

let check_canonical h =
  let rels = Relations.of_history h in
  match Consistency.errors rels with
  | _ :: _ as errs -> Inconsistent errs
  | [] -> (
      match try_canonical rels with
      | Ok s -> Opaque s
      | Error (`Invalid msg) -> Invalid_graph msg
      | Error `Cyclic -> Cyclic "canonical graph has a cycle"
      | Error `Witness_unverified ->
          Cyclic "canonical graph acyclic but witness failed verification")

(* Each element of a list paired with the list without that occurrence
   — removal is positional, so duplicate elements each keep their own
   slot (filtering on structural equality would drop every duplicate
   at once and lose candidate orders). *)
let rec selections = function
  | [] -> []
  | x :: rest ->
      (x, rest) :: List.map (fun (y, others) -> (y, x :: others)) (selections rest)

(* All permutations of a list, lazily: the fallback search below must
   not materialize factorial-sized lists. *)
let rec permutations (l : 'a list) : 'a list Seq.t =
  match l with
  | [] -> Seq.return []
  | l ->
      Seq.concat_map
        (fun (x, rest) -> Seq.map (fun p -> x :: p) (permutations rest))
        (List.to_seq (selections l))

(* Cartesian product of lazy choice sequences. *)
let rec product (choices : 'a Seq.t list) : 'a list Seq.t =
  match choices with
  | [] -> Seq.return []
  | first :: rest ->
      Seq.concat_map
        (fun c -> Seq.map (fun t -> c :: t) (product rest))
        first

let subsets l =
  List.fold_left
    (fun acc x -> acc @ List.map (fun s -> x :: s) acc)
    [ [] ] l

let check ?(exhaustive_limit = 20000) h =
  let rels = Relations.of_history h in
  match Consistency.errors rels with
  | _ :: _ as errs -> Inconsistent errs
  | [] -> (
      match try_canonical rels with
      | Ok s -> Opaque s
      | Error (`Invalid msg) -> Invalid_graph msg
      | Error (`Cyclic | `Witness_unverified) -> (
          (* Fallback: enumerate visibility of commit-pending
             transactions and WW orders per register.  The node
             structure and the hb/rt lifts (and the hb closure used to
             prune candidates) are shared across the whole
             enumeration. *)
          let cache = Graph.make_cache rels in
          let info = rels.Relations.info in
          let pending = Atomic_tm.commit_pending_txns info in
          let registers = Relations.registers rels in
          let found = ref None in
          let budget = ref exhaustive_limit in
          let vis_masks = subsets pending in
          (* A WW order placing a before b while hb⁺ already orders b
             before a closes a cycle no matter what the other choices
             are — reject it without building the graph. *)
          let ww_contradicts_hb ww_orders =
            let hbc = Graph.cache_hb_closure cache in
            List.exists
              (fun (_, order) ->
                let rec go = function
                  | [] -> false
                  | a :: rest ->
                      List.exists (fun b -> Rel.mem hbc b a) rest || go rest
                in
                go order)
              ww_orders
          in
          List.iter
            (fun visible_set ->
              if !found = None && !budget > 0 then begin
                let vis_pending k = List.mem k visible_set in
                (* Writers per register under this vis choice. *)
                match Graph.build ~cache ~vis_pending rels with
                | Error _ -> ()
                | Ok g0 ->
                    let orders_per_reg =
                      List.map
                        (fun x ->
                          Seq.map
                            (fun p -> (x, p))
                            (permutations (Graph.visible_writers g0 x)))
                        registers
                    in
                    let combos = product orders_per_reg in
                    let rec consume seq =
                      if !found = None && !budget > 0 then
                        match Seq.uncons seq with
                        | None -> ()
                        | Some (ww_orders, rest) ->
                            decr budget;
                            (if not (ww_contradicts_hb ww_orders) then
                               match
                                 try_graph rels ~cache ~vis_pending
                                   ~ww_orders ()
                               with
                               | Ok s -> found := Some s
                               | Error _ -> ());
                            consume rest
                    in
                    consume combos
              end)
            vis_masks;
          match !found with
          | Some s -> Opaque s
          | None ->
              Cyclic
                (if !budget <= 0 then "search budget exhausted"
                 else "every candidate graph has a cycle")))

(* ------------------------------------------------------------------ *)
(* Exhaustive witness oracle.                                          *)
(* ------------------------------------------------------------------ *)

let check_exhaustive_witness ?(node_limit = 9) h =
  let rels = Relations.of_history h in
  let info = rels.Relations.info in
  let n_actions = History.length h in
  (* Nodes: transactions, accesses, fence actions. *)
  let ntxns = Array.length info.History.txns in
  let naccs = Array.length info.History.accesses in
  let node_actions = ref [] in
  Array.iter
    (fun (t : History.txn) -> node_actions := t.History.t_actions :: !node_actions)
    info.History.txns;
  Array.iter
    (fun (a : History.access) ->
      node_actions :=
        (a.History.a_request
         :: (match a.History.a_response with Some r -> [ r ] | None -> []))
        :: !node_actions)
    info.History.accesses;
  for i = n_actions - 1 downto 0 do
    if info.History.txn_of.(i) = -1 && info.History.access_of.(i) = -1 then
      node_actions := [ i ] :: !node_actions
  done;
  let node_actions = Array.of_list (List.rev !node_actions) in
  let nnodes = Array.length node_actions in
  ignore (ntxns + naccs);
  if nnodes > node_limit then
    invalid_arg
      (Printf.sprintf
         "check_exhaustive_witness: %d nodes exceeds limit %d" nnodes
         node_limit);
  (* Linear extensions of the node-lifted hb: any witness must order
     nodes consistently with hb, since each node's actions stay
     contiguous in a non-interleaved history. *)
  let node_of_action = Array.make n_actions (-1) in
  Array.iteri
    (fun n acts -> List.iter (fun i -> node_of_action.(i) <- n) acts)
    node_actions;
  let hb_nodes =
    Rel.map rels.Relations.hb ~size:nnodes (Array.get node_of_action)
  in
  let candidate order =
    let out = ref [] in
    List.iter
      (fun n ->
        List.iter (fun i -> out := History.get h i :: !out) node_actions.(n))
      order;
    History.of_list (List.rev !out)
  in
  let found = ref false in
  let rec extend placed remaining =
    if !found then ()
    else if remaining = [] then begin
      let s = candidate (List.rev placed) in
      if Atomic_tm.mem s && Spo_relation.in_relation_of rels s then found := true
    end
    else
      List.iter
        (fun n ->
          (* n can be placed next iff no hb predecessor remains *)
          if
            (not !found)
            && not
                 (List.exists
                    (fun m -> m <> n && Rel.mem hb_nodes m n)
                    remaining)
          then extend (n :: placed) (List.filter (fun m -> m <> n) remaining))
        remaining
  in
  extend [] (List.init nnodes (fun n -> n));
  !found

let strongly_opaque h = is_opaque (check h)
