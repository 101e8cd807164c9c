open Tm_model
open Tm_relations

type node = Txn of int | Access of int

type read = { r_node : int; r_reg : Types.reg; r_writer : int }

type t = {
  rels : Relations.t;
  nodes : node array;
  node_of_action : int array;
  vis : bool array;
  hb : Rel.t;
  rt : Rel.t;
  ww : (Types.reg * int list) list;
  reads : read list;
  deps : Rel.t;
}

let info_of g = g.rels.Relations.info

let node_actions g n =
  let info = info_of g in
  match g.nodes.(n) with
  | Txn k -> info.History.txns.(k).History.t_actions
  | Access a ->
      let acc = info.History.accesses.(a) in
      acc.History.a_request
      :: (match acc.History.a_response with Some r -> [ r ] | None -> [])

let node_thread g n =
  let info = info_of g in
  match g.nodes.(n) with
  | Txn k -> info.History.txns.(k).History.t_thread
  | Access a -> info.History.accesses.(a).History.a_thread

(* For each transaction, the first read response of another node that
   returns one of its values, or max_int. *)
let first_external_reads (rels : Relations.t) =
  let txn_of = rels.Relations.info.History.txn_of in
  let first = Array.make (Array.length rels.Relations.info.History.txns) max_int in
  for j = Array.length txn_of - 1 downto 0 do
    let w = Relations.writer rels j in
    if w >= 0 && txn_of.(w) >= 0 && txn_of.(j) <> txn_of.(w) then
      first.(txn_of.(w)) <- j
  done;
  first

(* Visible iff read from by an action outside the transaction. *)
let default_vis_pending (rels : Relations.t) =
  let first_read = lazy (first_external_reads rels) in
  fun k -> (Lazy.force first_read).(k) < max_int

let default_write_stamp (rels : Relations.t) =
  let first_read = lazy (first_external_reads rels) in
  function
  | Access a -> rels.Relations.info.History.accesses.(a).History.a_request
  | Txn k ->
      let info = rels.Relations.info in
      let last =
        match History.txn_completion info k with
        | Some c -> c
        | None -> (
            match List.rev info.History.txns.(k).History.t_actions with
            | last :: _ -> last
            | [] -> 0)
      in
      min last (Lazy.force first_read).(k)

let commit_request_stamp (rels : Relations.t) =
  let default = default_write_stamp rels in
  let h = rels.Relations.info.History.history in
  function
  | Txn k as node -> (
      match
        List.find_opt
          (fun i ->
            Action.equal_kind (History.get h i).Action.kind
              (Action.Request Action.Txcommit))
          rels.Relations.info.History.txns.(k).History.t_actions
      with
      | Some i -> min i (default node)
      | None -> default node)
  | node -> default node

(* Node structure and hb/rt node lifts depend only on the history, not
   on the vis/ww choices, so the fallback search of [Checker.check] can
   compute them once and reuse them across every candidate graph. *)
type cache = {
  c_nodes : node array;
  c_node_of_action : int array;
  c_hb : Rel.t;
  c_rt : Rel.t;
  c_hb_closure : Rel.t Lazy.t;
}

let node_structure (rels : Relations.t) =
  let info = rels.Relations.info in
  let ntxns = Array.length info.History.txns in
  let naccs = Array.length info.History.accesses in
  let nnodes = ntxns + naccs in
  let nodes =
    Array.init nnodes (fun n -> if n < ntxns then Txn n else Access (n - ntxns))
  in
  let n_actions = History.length info.History.history in
  let node_of_action = Array.make n_actions (-1) in
  for i = 0 to n_actions - 1 do
    if info.History.txn_of.(i) >= 0 then
      node_of_action.(i) <- info.History.txn_of.(i)
    else if info.History.access_of.(i) >= 0 then
      node_of_action.(i) <- ntxns + info.History.access_of.(i)
  done;
  (nodes, node_of_action)

(* hb lifted to nodes, dropping self edges and fence actions. *)
let lift_hb (rels : Relations.t) nodes node_of_action =
  Rel.map rels.Relations.hb ~size:(Array.length nodes) (Array.get node_of_action)

(* rt lifted to nodes: transaction k before transaction k' when k's
   completion precedes k''s txbegin.  Accesses have no completion or
   txbegin. *)
let lift_rt (rels : Relations.t) nodes =
  let txns = rels.Relations.info.History.txns in
  let rt = Rel.create (Array.length nodes) in
  Array.iteri
    (fun k _ ->
      match History.txn_completion rels.Relations.info k with
      | None -> ()
      | Some c ->
          Array.iteri
            (fun k' (t' : History.txn) ->
              if k' <> k && c < List.hd t'.History.t_actions then
                Rel.add rt k k')
            txns)
    txns;
  rt

let make_cache (rels : Relations.t) =
  let nodes, node_of_action = node_structure rels in
  let hb = lift_hb rels nodes node_of_action in
  {
    c_nodes = nodes;
    c_node_of_action = node_of_action;
    c_hb = hb;
    c_rt = lift_rt rels nodes;
    c_hb_closure = lazy (Rel.transitive_closure hb);
  }

let cache_hb_closure cache = Lazy.force cache.c_hb_closure

(* Every non-local read of a node: the node it reads from, or [-1] for
   [vinit].  Reads of a node's own writes add no edge. *)
let node_reads (rels : Relations.t) node_of_action =
  let h = rels.Relations.info.History.history in
  let request_of = rels.Relations.info.History.request_of in
  let acc = ref [] in
  for j = History.length h - 1 downto 0 do
    match ((History.get h j).Action.kind, request_of.(j)) with
    | Action.Response (Action.Ret v), Some req -> (
        match (History.get h req).Action.kind with
        | Action.Request (Action.Read x) ->
            let n = node_of_action.(j) and w = Relations.writer rels j in
            if v = Types.v_init then
              acc := { r_node = n; r_reg = x; r_writer = -1 } :: !acc
            else if w >= 0 && node_of_action.(w) <> n then
              acc := { r_node = n; r_reg = x; r_writer = node_of_action.(w) }
                     :: !acc
        | _ -> ())
    | _ -> ()
  done;
  !acc

(* The visible writers of each register, ascending by node. *)
let writers_by_reg (rels : Relations.t) node_of_action vis =
  let h = rels.Relations.info.History.history in
  let tbl = Hashtbl.create 8 in
  for i = History.length h - 1 downto 0 do
    let a = History.get h i in
    match Action.accessed_reg a with
    | Some x
      when Action.is_write_request a
           && node_of_action.(i) >= 0
           && vis.(node_of_action.(i)) ->
        let ws = Option.value ~default:[] (Hashtbl.find_opt tbl x) in
        Hashtbl.replace tbl x (node_of_action.(i) :: ws)
    | _ -> ()
  done;
  fun x ->
    List.sort_uniq compare (Option.value ~default:[] (Hashtbl.find_opt tbl x))

type dep = WR | WW | RW

(* The ww successors of [w] in [order]: all writers when [w] is [-1]. *)
let rec after w = function
  | [] -> []
  | n :: rest -> if w = -1 then n :: rest else if n = w then rest else after w rest

let iter_dep g kind f =
  match kind with
  | WR ->
      List.iter
        (fun r -> if r.r_writer >= 0 then f r.r_reg r.r_writer r.r_node)
        g.reads
  | WW ->
      List.iter
        (fun (x, order) ->
          let rec total = function
            | [] -> ()
            | n :: rest ->
                List.iter (f x n) rest;
                total rest
          in
          total order)
        g.ww
  | RW ->
      (* (∃n''. n'' -WW-> n' ∧ n'' -WR-> n) ⟹ n -RW-> n'; reads of
         vinit are overwritten by every visible writer *)
      List.iter
        (fun r ->
          let order = Option.value ~default:[] (List.assoc_opt r.r_reg g.ww) in
          List.iter
            (fun n' -> if n' <> r.r_node then f r.r_reg r.r_node n')
            (after r.r_writer order))
        g.reads

let build ?cache ?vis_pending ?write_stamp ?(ww_orders = [])
    (rels : Relations.t) =
  let info = rels.Relations.info in
  let vis_pending =
    match vis_pending with Some f -> f | None -> default_vis_pending rels
  in
  let nodes, node_of_action =
    match cache with
    | Some c -> (c.c_nodes, c.c_node_of_action)
    | None -> node_structure rels
  in
  let nnodes = Array.length nodes in
  let vis =
    Array.init nnodes (fun n ->
        match nodes.(n) with
        | Access _ -> true
        | Txn k -> (
            match info.History.txns.(k).History.t_status with
            | History.Committed -> true
            | History.Aborted | History.Live -> false
            | History.Commit_pending -> vis_pending k))
  in
  let write_stamp =
    match write_stamp with Some f -> f | None -> default_write_stamp rels
  in
  let hb, rt =
    (* shared read-only across candidate graphs when cached *)
    match cache with
    | Some c -> (c.c_hb, c.c_rt)
    | None -> (lift_hb rels nodes node_of_action, lift_rt rels nodes)
  in
  let error = ref None in
  let reads = node_reads rels node_of_action in
  List.iter
    (fun r ->
      if r.r_writer >= 0 && not vis.(r.r_writer) then
        error :=
          Some
            (Format.asprintf "node %d is read from on %a but not visible"
               r.r_writer Types.pp_reg r.r_reg))
    reads;
  let writers = writers_by_reg rels node_of_action vis in
  let ww =
    List.map
      (fun x ->
        let writers = writers x in
        match List.assoc_opt x ww_orders with
        | Some order ->
            if List.sort compare order = writers then (x, order)
            else begin
              error :=
                Some
                  (Format.asprintf
                     "ww_orders for %a is not a permutation of the \
                      visible writers"
                     Types.pp_reg x);
              (x, writers)
            end
        | None ->
            ( x,
              List.sort
                (fun a b ->
                  compare (write_stamp nodes.(a)) (write_stamp nodes.(b)))
                writers ))
      (Relations.registers rels)
  in
  match !error with
  | Some msg -> Error msg
  | None ->
      let g =
        { rels; nodes; node_of_action; vis; hb; rt; ww; reads;
          deps = Rel.create nnodes }
      in
      List.iter
        (fun kind -> iter_dep g kind (fun _ a b -> Rel.add g.deps a b))
        [ WR; WW; RW ];
      Ok g

let visible_writers g x = Option.value ~default:[] (List.assoc_opt x g.ww)

let is_acyclic g = Rel.is_acyclic (Rel.union g.hb g.deps)

let hb_deps_irreflexive g = Rel.is_irreflexive (Rel.compose g.hb g.deps)

let txn_cycle_free g =
  let ntxns = Array.length (info_of g).History.txns in
  let r = Rel.create (Array.length g.nodes) in
  let keep src dst = src < ntxns && dst < ntxns in
  Rel.iter_pairs g.rt (fun i j -> if keep i j then Rel.add r i j);
  Rel.iter_pairs g.deps (fun i j -> if keep i j then Rel.add r i j);
  Rel.is_acyclic r

let witness g =
  let info = info_of g in
  let h = info.History.history in
  let nnodes = Array.length g.nodes in
  let n_actions = History.length h in
  (* Fenced graph (Definition B.5): graph nodes plus one node per fence
     action, with happens-before edges adjoined. *)
  let fence_actions = ref [] in
  for i = n_actions - 1 downto 0 do
    if g.node_of_action.(i) = -1 then fence_actions := i :: !fence_actions
  done;
  let fence_actions = Array.of_list !fence_actions in
  let nfences = Array.length fence_actions in
  let fence_node = Hashtbl.create 8 in
  Array.iteri (fun k i -> Hashtbl.replace fence_node i (nnodes + k)) fence_actions;
  let ext =
    Rel.map g.rels.Relations.hb ~size:(nnodes + nfences) (fun i ->
        if g.node_of_action.(i) >= 0 then g.node_of_action.(i)
        else Hashtbl.find fence_node i)
  in
  Rel.iter_pairs g.deps (fun i j -> Rel.add ext i j);
  match Rel.topological_sort ext with
  | None -> None
  | Some order ->
      let out = ref [] in
      List.iter
        (fun n ->
          if n < nnodes then
            List.iter
              (fun i -> out := History.get h i :: !out)
              (node_actions g n)
          else
            out := History.get h fence_actions.(n - nnodes) :: !out)
        order;
      Some (History.of_list (List.rev !out))

let pp ppf g =
  let info = info_of g in
  Format.fprintf ppf "@[<v>opacity graph: %d nodes@,"
    (Array.length g.nodes);
  Array.iteri
    (fun n node ->
      let desc =
        match node with
        | Txn k ->
            Format.asprintf "txn %d (%a, thread %d)" k History.pp_status
              info.History.txns.(k).History.t_status
              info.History.txns.(k).History.t_thread
        | Access a ->
            Format.asprintf "access %d (thread %d)" a
              info.History.accesses.(a).History.a_thread
      in
      Format.fprintf ppf "  node %d: %s vis=%b@," n desc g.vis.(n))
    g.nodes;
  Format.fprintf ppf "  HB=%d RT=%d deps=%d@]" (Rel.cardinal g.hb)
    (Rel.cardinal g.rt) (Rel.cardinal g.deps)
