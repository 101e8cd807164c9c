(* Tests for tm_relations: the Rel bitset representation, the paper's
   happens-before components (§3) and DRF on the figure histories. *)

open Tm_model
open Tm_relations

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ----------------------------- Rel ------------------------------- *)

let test_rel_basics () =
  let r = Rel.create 5 in
  Rel.add r 0 1;
  Rel.add r 1 2;
  check bool "mem added" true (Rel.mem r 0 1);
  check bool "not mem" false (Rel.mem r 0 2);
  let c = Rel.transitive_closure r in
  check bool "closure" true (Rel.mem c 0 2);
  check int "cardinal" 2 (Rel.cardinal r);
  check int "closure cardinal" 3 (Rel.cardinal c)

let test_rel_compose () =
  let a = Rel.create 4 and b = Rel.create 4 in
  Rel.add a 0 1;
  Rel.add a 2 3;
  Rel.add b 1 2;
  let c = Rel.compose a b in
  check bool "0;1 . 1;2 = 0;2" true (Rel.mem c 0 2);
  check bool "no spurious" false (Rel.mem c 2 3);
  check int "one pair" 1 (Rel.cardinal c)

let test_rel_acyclic () =
  let r = Rel.create 3 in
  Rel.add r 0 1;
  Rel.add r 1 2;
  check bool "acyclic" true (Rel.is_acyclic r);
  Rel.add r 2 0;
  check bool "cyclic" false (Rel.is_acyclic r)

let test_rel_toposort () =
  let r = Rel.create 4 in
  Rel.add r 3 1;
  Rel.add r 1 0;
  Rel.add r 0 2;
  (match Rel.topological_sort r with
  | Some order -> check (Alcotest.list int) "order" [ 3; 1; 0; 2 ] order
  | None -> Alcotest.fail "expected a topological order");
  Rel.add r 2 3;
  check bool "no order on cycle" true (Rel.topological_sort r = None)

let test_rel_large_indices () =
  (* exercise multi-word rows *)
  let n = 200 in
  let r = Rel.create n in
  Rel.add r 0 199;
  Rel.add r 63 64;
  Rel.add r 64 126;
  check bool "bit across words" true (Rel.mem r 0 199);
  let c = Rel.transitive_closure r in
  check bool "closure across words" true (Rel.mem c 63 126)

(* ------------------------ hb components -------------------------- *)

let count_pairs n p =
  let c = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if p i j then incr c
    done
  done;
  !c

let test_po_cl () =
  let b = Builder.create () in
  Builder.write b 0 Helpers.x 1;
  Builder.write b 1 Helpers.flag 2;
  Builder.write b 0 Helpers.x 3;
  let r = Relations.of_history (Builder.history b) in
  (* indices: 0-1 write t0; 2-3 write t1; 4-5 write t0 *)
  check bool "po same thread" true (Relations.po r 0 4);
  check bool "po not cross-thread" false (Relations.po r 0 2);
  check bool "cl cross-thread nontxn" true (Relations.cl r 0 2);
  check bool "hb contains cl" true (Rel.mem r.Relations.hb 0 2)

let test_wr_dependency () =
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.write b 0 Helpers.x 5;
  Builder.commit b 0;
  Builder.txbegin b 1;
  Builder.read b 1 Helpers.x 5;
  Builder.commit b 1;
  let r = Relations.of_history (Builder.history b) in
  (* write request at 2; read response at 9 *)
  check bool "wr edge" true (Relations.wr r 2 9);
  check bool "txwr edge" true (Relations.txwr r 2 9)

let test_wr_not_txwr_for_nontxn () =
  let b = Builder.create () in
  Builder.write b 0 Helpers.x 5;
  Builder.txbegin b 1;
  Builder.read b 1 Helpers.x 5;
  Builder.commit b 1;
  let h = Builder.history b in
  let r = Relations.of_history h in
  let n = History.length h in
  check bool "wr present" true (count_pairs n (Relations.wr r) = 1);
  check bool "txwr empty (writer non-transactional)" true
    (count_pairs n (Relations.txwr r) = 0)

let test_fence_relations () =
  let h = Helpers.privatization_fenced_history () in
  let r = Relations.of_history h in
  (* T2's committed (index 7) is before-fence-ordered with fend. *)
  let fend =
    let found = ref (-1) in
    Array.iteri
      (fun i (a : Action.t) ->
        if Action.equal_kind a.Action.kind (Action.Response Action.Fend) then
          found := i)
      h;
    !found
  in
  check bool "found fend" true (fend >= 0);
  check bool "bf: T2 completion before fend" true (Relations.bf r 7 fend)

let test_af_relation () =
  let b = Builder.create () in
  Builder.fence b 0;
  Builder.txbegin b 1;
  Builder.commit b 1;
  let r = Relations.of_history (Builder.history b) in
  (* fbegin at 0, txbegin at 2 *)
  check bool "af edge" true (Relations.af r 0 2);
  check bool "af in hb" true (Rel.mem r.Relations.hb 0 2)

let test_xpo_txwr_publication () =
  (* The publication idiom: ν's write to x happens-before T2's read of
     x via xpo ; txwr on the flag. *)
  let h = Helpers.publication_history () in
  let r = Relations.of_history h in
  (* index 0 = ν's write(x) request; T2's read(x) request is at 12. *)
  check bool "publication hb edge" true (Rel.mem r.Relations.hb 0 12)

let test_rt_order () =
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.commit b 0;
  Builder.txbegin b 1;
  Builder.commit b 1;
  let r = Relations.of_history (Builder.history b) in
  (* completion of txn 1 at index 3; txbegin of txn 2 at index 4 *)
  check bool "rt orders non-overlapping txns" true (Relations.rt r 3 4)

(* ------------------------------ DRF ------------------------------ *)

let test_publication_drf () =
  check bool "publication is DRF" true
    (Race.is_drf_history (Helpers.publication_history ()))

let test_privatization_fenced_drf () =
  check bool "fenced privatization is DRF" true
    (Race.is_drf_history (Helpers.privatization_fenced_history ()))

let test_delayed_commit_racy () =
  let r = Relations.of_history (Helpers.delayed_commit_history ()) in
  check bool "unfenced privatization is racy" false (Race.is_drf r);
  match Race.first_race r with
  | Some race -> check int "race on x" Helpers.x race.Race.r_reg
  | None -> Alcotest.fail "expected a race"

let test_racy_figure3 () =
  let r = Relations.of_history (Helpers.racy_history ()) in
  check bool "figure 3 is racy" false (Race.is_drf r);
  check bool "two races (x and y)" true (List.length (Race.races r) = 2)

let test_agreement_drf () =
  check bool "agreement idiom is DRF" true
    (Race.is_drf_history (Helpers.agreement_history ()))

let test_doomed_read_racy_without_fence () =
  (* Without a fence the doomed history is racy (the conflict between
     ν's write and T2's read of x is unordered). *)
  check bool "doomed history racy" false
    (Race.is_drf_history (Helpers.doomed_read_history ()))

(* ------------------------ online detector ------------------------- *)

let test_online_detects_figures () =
  check bool "publication DRF (online)" true
    (Online_race.is_drf (Helpers.publication_history ()));
  check bool "fenced privatization DRF (online)" true
    (Online_race.is_drf (Helpers.privatization_fenced_history ()));
  check bool "delayed commit racy (online)" false
    (Online_race.is_drf (Helpers.delayed_commit_history ()));
  check bool "figure 3 racy (online)" false
    (Online_race.is_drf (Helpers.racy_history ()));
  check bool "agreement DRF (online)" true
    (Online_race.is_drf (Helpers.agreement_history ()));
  check bool "doomed racy (online)" false
    (Online_race.is_drf (Helpers.doomed_read_history ()))

let test_online_incremental_api () =
  let h = Helpers.delayed_commit_history () in
  let d = Online_race.create ~threads:2 in
  let found = ref None in
  Array.iter
    (fun a -> match Online_race.step d a with
       | Some r when !found = None -> found := Some r
       | _ -> ())
    h;
  match !found with
  | Some r -> check int "race register" Helpers.x r.Race.r_reg
  | None -> Alcotest.fail "expected an online race"

let prop_online_verdict_matches_offline =
  QCheck.Test.make ~name:"online detector verdict matches offline" ~count:400
    QCheck.small_int
    (fun seed ->
      let h =
        Tm_workloads.History_gen.generate ~seed:(seed * 5) ~threads:3
          ~registers:3 ~steps:6 ()
      in
      let offline = Race.races (Relations.of_history h) in
      let online = Online_race.check h in
      (offline = []) = (online = []))

let prop_online_races_sound =
  QCheck.Test.make ~name:"online races are a subset of offline races"
    ~count:400 QCheck.small_int
    (fun seed ->
      let h =
        Tm_workloads.History_gen.generate ~seed:(seed * 17) ~threads:3
          ~registers:3 ~steps:6 ()
      in
      let norm l =
        List.sort_uniq compare
          (List.map (fun r -> Race.(r.r_nontxn, r.r_txn, r.r_reg)) l)
      in
      let offline = norm (Race.races (Relations.of_history h)) in
      List.for_all (fun r -> List.mem r offline)
        (norm (Online_race.check h)))


(* ----------------------- all-pairs hb oracle ----------------------- *)

(* The all-pairs construction of Definition 3.4: every base relation as
   an explicit bitset from its definition, their union with xpo;txwr_x
   per register, then Warshall.  [Relations] builds hb from sparse
   generators instead; the two must agree. *)
module Oracle = struct
  let kind h i = (History.get h i).Action.kind
  let thread h i = (History.get h i).Action.thread
  let nontxn (info : History.info) i = info.History.txn_of.(i) = -1

  let po (info : History.info) i j =
    let h = info.History.history in
    i < j && thread h i = thread h j

  (* a txbegin of the thread strictly between i and j *)
  let xpo (info : History.info) i j =
    let h = info.History.history in
    po info i j
    &&
    let rec between k =
      k < j
      && ((thread h k = thread h i
          && kind h k = Action.Request Action.Txbegin)
         || between (k + 1))
    in
    between (i + 1)

  let cl info i j = i < j && nontxn info i && nontxn info j

  let af (info : History.info) i j =
    let h = info.History.history in
    i < j
    && kind h i = Action.Request Action.Fbegin
    && kind h j = Action.Request Action.Txbegin

  let completion h i =
    match kind h i with
    | Action.Response (Action.Committed | Action.Aborted) -> true
    | _ -> false

  let bf (info : History.info) i j =
    let h = info.History.history in
    i < j && completion h i && kind h j = Action.Response Action.Fend

  let rt (info : History.info) i j =
    let h = info.History.history in
    i < j && completion h i && kind h j = Action.Request Action.Txbegin

  (* wr_x: a write(x,v) request to the ret(v) response, v ≠ vinit, of a
     read(x) request *)
  let wr_x (info : History.info) x i j =
    let h = info.History.history in
    match (kind h i, kind h j, info.History.request_of.(j)) with
    | ( Action.Request (Action.Write (y, v)),
        Action.Response (Action.Ret v'),
        Some req ) ->
        y = x && v = v' && v <> Types.v_init
        && kind h req = Action.Request (Action.Read x)
    | _ -> false

  let txwr_x info x i j =
    wr_x info x i j && (not (nontxn info i)) && not (nontxn info j)

  let registers h =
    List.sort_uniq compare
      (List.filter_map Action.accessed_reg (History.to_list h))

  let compose n a b =
    let r = Rel.create n in
    for i = 0 to n - 1 do
      for k = 0 to n - 1 do
        if Rel.mem a i k then
          for j = 0 to n - 1 do
            if Rel.mem b k j then Rel.add r i j
          done
      done
    done;
    r

  let warshall n r =
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        if Rel.mem r i k then
          for j = 0 to n - 1 do
            if Rel.mem r k j then Rel.add r i j
          done
      done
    done

  let hb (info : History.info) =
    let h = info.History.history in
    let n = History.length h in
    let rel p = Rel.of_pred n (p info) in
    let xpo = rel xpo in
    let r = Rel.create n in
    List.iter (Rel.union_into ~dst:r) [ rel po; rel cl; rel af; rel bf ];
    List.iter
      (fun x -> Rel.union_into ~dst:r (compose n xpo (rel (fun i -> txwr_x i x))))
      (registers h);
    warshall n r;
    r
end

(* Relations.hb against the oracle, and every base predicate against
   its definition on all pairs. *)
let agrees_with_oracle h =
  let info = History.analyze h in
  let r = Relations.compute info in
  let n = History.length h in
  let regs = Oracle.registers h in
  let same name p q =
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if p i j <> q i j then
          QCheck.Test.fail_reportf "%s differs at (%d,%d) on@.%a" name i j
            History.pp h
      done
    done
  in
  same "po" (Relations.po r) (Oracle.po info);
  same "xpo" (Relations.xpo r) (Oracle.xpo info);
  same "cl" (Relations.cl r) (Oracle.cl info);
  same "af" (Relations.af r) (Oracle.af info);
  same "bf" (Relations.bf r) (Oracle.bf info);
  same "rt" (Relations.rt r) (Oracle.rt info);
  same "wr" (Relations.wr r) (fun i j ->
      List.exists (fun x -> Oracle.wr_x info x i j) regs);
  same "txwr" (Relations.txwr r) (fun i j ->
      List.exists (fun x -> Oracle.txwr_x info x i j) regs);
  if not (Rel.equal r.Relations.hb (Oracle.hb info)) then
    QCheck.Test.fail_reportf "hb differs from the oracle on@.%a" History.pp h;
  true

let prop_hb_matches_oracle =
  QCheck.Test.make ~name:"hb and base relations match the all-pairs oracle"
    ~count:500
    QCheck.(quad small_nat (int_range 1 4) (int_range 1 3) (int_range 1 9))
    (fun (seed, threads, registers, steps) ->
      agrees_with_oracle
        (Tm_workloads.History_gen.generate ~seed ~threads ~registers ~steps ()))

let test_oracle_history_files () =
  let files =
    Sys.readdir Helpers.histories_dir
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".txt")
  in
  check bool "history files found" true (files <> []);
  List.iter
    (fun f ->
      match Text.of_file (Filename.concat Helpers.histories_dir f) with
      | Ok h -> check bool (f ^ " agrees with the oracle") true (agrees_with_oracle h)
      | Error e -> Alcotest.failf "cannot load %s: %s" f e)
    files

let test_oracle_figure_histories () =
  List.iter
    (fun fig ->
      List.iter
        (fun h ->
          check bool
            (fig.Tm_lang.Figures.f_name ^ " agrees with the oracle")
            true (agrees_with_oracle h))
        (Tm_lang.Explore.histories ~fuel:fig.Tm_lang.Figures.f_fuel
           fig.Tm_lang.Figures.f_program))
    Tm_lang.Figures.all

(* --------------------- Rel against a pair list --------------------- *)

(* Sizes that end exactly on and just past word boundaries, with pairs
   drawn mostly from indices next to a boundary. *)
let rel_model_gen =
  QCheck.Gen.(
    oneofl [ 63; 64; 126; 127; 189 ] >>= fun n ->
    let idx =
      frequency
        [
          (2, int_bound (n - 1));
          (3, oneofl (List.filter (fun i -> i < n) [ 0; 1; 61; 62; 63; 64; 125; 126; 127; 188 ]));
        ]
    in
    pair (return n) (list_size (int_bound 40) (pair idx idx)))

let prop_rel_matches_pair_list =
  QCheck.Test.make ~name:"Rel agrees with a list-of-pairs model"
    ~count:300
    (QCheck.make rel_model_gen)
    (fun (n, pairs) ->
      let model = List.sort_uniq compare pairs in
      let forward = List.filter (fun (i, j) -> i < j) model in
      let of_list ps =
        let r = Rel.create n in
        List.iter (fun (i, j) -> Rel.add r i j) ps;
        r
      in
      let r = of_list model in
      (* closure of a pair list by fixpoint *)
      let rec close ps =
        let ps' =
          List.sort_uniq compare
            (ps
            @ List.concat_map
                (fun (i, k) ->
                  List.filter_map
                    (fun (k', j) -> if k = k' then Some (i, j) else None)
                    ps)
                ps)
        in
        if ps' = ps then ps else close ps'
      in
      let compose a b =
        List.sort_uniq compare
          (List.concat_map
             (fun (i, k) ->
               List.filter_map (fun (k', j) -> if k = k' then Some (i, j) else None) b)
             a)
      in
      let f i = if i mod 3 = 2 then -1 else i / 3 in
      let mapped =
        List.sort_uniq compare
          (List.filter_map
             (fun (i, j) ->
               if f i >= 0 && f j >= 0 && f i <> f j then Some (f i, f j)
               else None)
             model)
      in
      (* odd elements first, then even ones, each descending *)
      let order =
        Array.of_list
          (List.rev (List.filter (fun i -> i mod 2 = 1) (List.init n Fun.id))
          @ List.rev (List.filter (fun i -> i mod 2 = 0) (List.init n Fun.id)))
      in
      let pos = Array.make n 0 in
      Array.iteri (fun p i -> pos.(i) <- p) order;
      Rel.pairs r = model
      && Rel.cardinal r = List.length model
      && List.for_all (fun (i, j) -> Rel.mem r i j) model
      && List.for_all
           (fun i ->
             Rel.successors r i
             = List.filter_map (fun (i', j) -> if i = i' then Some j else None) model)
           (List.filter (fun i -> i < n) [ 0; 62; 63; 64; n - 1 ])
      && Rel.pairs (Rel.compose r r) = compose model model
      && Rel.pairs (Rel.transitive_closure r) = close model
      && Rel.pairs (Rel.transitive_closure (of_list forward)) = close forward
      && Rel.pairs (Rel.map r ~size:((n / 3) + 1) f) = mapped
      && Rel.respects_order r order
         = List.for_all (fun (i, j) -> i = j || pos.(i) < pos.(j)) model)

(* --------------------------- properties --------------------------- *)

let rel_gen n =
  QCheck.Gen.(
    list_size (int_bound 20) (pair (int_bound (n - 1)) (int_bound (n - 1))))

let prop_closure_idempotent =
  QCheck.Test.make ~name:"transitive closure is idempotent" ~count:200
    (QCheck.make (rel_gen 12))
    (fun pairs ->
      let r = Rel.create 12 in
      List.iter (fun (i, j) -> Rel.add r i j) pairs;
      let c1 = Rel.transitive_closure r in
      let c2 = Rel.transitive_closure c1 in
      Rel.equal c1 c2)

let prop_compose_subset_closure =
  QCheck.Test.make ~name:"r;r subset of closure" ~count:200
    (QCheck.make (rel_gen 10))
    (fun pairs ->
      let r = Rel.create 10 in
      List.iter (fun (i, j) -> Rel.add r i j) pairs;
      let rr = Rel.compose r r in
      let c = Rel.transitive_closure r in
      Rel.fold_pairs rr (fun acc i j -> acc && Rel.mem c i j) true)

(* Oracle for the early-exit DFS paths: the closure-based definitions
   they replaced. *)
let acyclic_oracle r = Rel.is_irreflexive (Rel.transitive_closure r)
let reachable_oracle r i j = Rel.mem (Rel.transitive_closure r) i j

let prop_acyclic_matches_closure_oracle =
  QCheck.Test.make
    ~name:"early-exit is_acyclic agrees with the closure-based oracle"
    ~count:1000
    (QCheck.make (rel_gen 14))
    (fun pairs ->
      let r = Rel.create 14 in
      List.iter (fun (i, j) -> Rel.add r i j) pairs;
      Rel.is_acyclic r = acyclic_oracle r)

let prop_reachable_matches_closure =
  QCheck.Test.make
    ~name:"reachable agrees with transitive-closure membership" ~count:400
    (QCheck.make (rel_gen 12))
    (fun pairs ->
      let r = Rel.create 12 in
      List.iter (fun (i, j) -> Rel.add r i j) pairs;
      let ok = ref true in
      for i = 0 to 11 do
        for j = 0 to 11 do
          if Rel.reachable r i j <> reachable_oracle r i j then ok := false
        done
      done;
      !ok)

let test_acyclic_random_dags () =
  (* graphs whose edges all point forward are DAGs by construction *)
  let st = Random.State.make [| 7; 11 |] in
  for _ = 1 to 50 do
    let n = 2 + Random.State.int st 60 in
    let r = Rel.create n in
    for _ = 1 to n * 3 do
      let i = Random.State.int st n and j = Random.State.int st n in
      if i < j then Rel.add r i j
    done;
    check bool "forward-edge graph is acyclic" true (Rel.is_acyclic r);
    check bool "oracle agrees" true (acyclic_oracle r)
  done

let test_acyclic_random_cyclic () =
  (* a random forward DAG plus one closing back edge along a spine *)
  let st = Random.State.make [| 13; 17 |] in
  for _ = 1 to 50 do
    let n = 3 + Random.State.int st 60 in
    let r = Rel.create n in
    for i = 0 to n - 2 do
      Rel.add r i (i + 1)
    done;
    for _ = 1 to n * 2 do
      let i = Random.State.int st n and j = Random.State.int st n in
      if i < j then Rel.add r i j
    done;
    let k = 1 + Random.State.int st (n - 1) in
    Rel.add r k 0;
    check bool "graph with a back edge is cyclic" false (Rel.is_acyclic r);
    check bool "oracle agrees" false (acyclic_oracle r)
  done

let test_reachable_basics () =
  let r = Rel.create 6 in
  Rel.add r 0 1;
  Rel.add r 1 2;
  Rel.add r 3 4;
  check bool "one step" true (Rel.reachable r 0 1);
  check bool "two steps" true (Rel.reachable r 0 2);
  check bool "disconnected" false (Rel.reachable r 0 4);
  check bool "not reflexive without a cycle" false (Rel.reachable r 0 0);
  Rel.add r 2 0;
  check bool "reflexive through a cycle" true (Rel.reachable r 0 0)

let prop_toposort_respects_rel =
  QCheck.Test.make ~name:"topological sort respects the relation"
    ~count:200
    (QCheck.make (rel_gen 10))
    (fun pairs ->
      let r = Rel.create 10 in
      List.iter (fun (i, j) -> if i <> j then Rel.add r i j) pairs;
      match Rel.topological_sort r with
      | None -> not (Rel.is_acyclic r)
      | Some order ->
          let pos = Array.make 10 0 in
          List.iteri (fun idx n -> pos.(n) <- idx) order;
          Rel.fold_pairs r (fun acc i j -> acc && pos.(i) < pos.(j)) true)

let () =
  Alcotest.run "tm_relations"
    [
      ( "rel",
        [
          Alcotest.test_case "basics" `Quick test_rel_basics;
          Alcotest.test_case "compose" `Quick test_rel_compose;
          Alcotest.test_case "acyclicity" `Quick test_rel_acyclic;
          Alcotest.test_case "topological sort" `Quick test_rel_toposort;
          Alcotest.test_case "multi-word rows" `Quick test_rel_large_indices;
          Alcotest.test_case "acyclic on random DAGs" `Quick
            test_acyclic_random_dags;
          Alcotest.test_case "cyclic on random cyclic graphs" `Quick
            test_acyclic_random_cyclic;
          Alcotest.test_case "reachability basics" `Quick
            test_reachable_basics;
        ] );
      ( "hb components",
        [
          Alcotest.test_case "po and cl" `Quick test_po_cl;
          Alcotest.test_case "wr dependency" `Quick test_wr_dependency;
          Alcotest.test_case "txwr excludes non-transactional writers"
            `Quick test_wr_not_txwr_for_nontxn;
          Alcotest.test_case "before-fence" `Quick test_fence_relations;
          Alcotest.test_case "after-fence" `Quick test_af_relation;
          Alcotest.test_case "publication via xpo;txwr" `Quick
            test_xpo_txwr_publication;
          Alcotest.test_case "real-time order" `Quick test_rt_order;
          Alcotest.test_case "oracle on history files" `Quick
            test_oracle_history_files;
          Alcotest.test_case "oracle on figure histories" `Quick
            test_oracle_figure_histories;
        ] );
      ( "drf",
        [
          Alcotest.test_case "publication DRF" `Quick test_publication_drf;
          Alcotest.test_case "fenced privatization DRF" `Quick
            test_privatization_fenced_drf;
          Alcotest.test_case "delayed commit racy" `Quick
            test_delayed_commit_racy;
          Alcotest.test_case "figure 3 racy" `Quick test_racy_figure3;
          Alcotest.test_case "agreement DRF" `Quick test_agreement_drf;
          Alcotest.test_case "doomed without fence racy" `Quick
            test_doomed_read_racy_without_fence;
        ] );
      ( "online detector",
        [
          Alcotest.test_case "figure verdicts" `Quick
            test_online_detects_figures;
          Alcotest.test_case "incremental API" `Quick
            test_online_incremental_api;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_closure_idempotent;
            prop_compose_subset_closure;
            prop_acyclic_matches_closure_oracle;
            prop_reachable_matches_closure;
            prop_toposort_respects_rel;
            prop_online_verdict_matches_offline;
            prop_online_races_sound;
            prop_hb_matches_oracle;
            prop_rel_matches_pair_list;
          ] );
    ]
