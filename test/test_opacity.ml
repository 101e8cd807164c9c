(* Tests for tm_opacity: the ⊑ relation, consistency, opacity graphs,
   the strong-opacity checker and its exhaustive oracle. *)

open Tm_model
open Tm_relations
open Tm_opacity

let check = Alcotest.check
let bool = Alcotest.bool

let x = Helpers.x
let flag = Helpers.flag

(* --------------------------- ⊑ relation --------------------------- *)

let test_spo_identity () =
  let h = Helpers.publication_history () in
  check bool "H ⊑ H" true (Spo_relation.in_relation h h)

let test_spo_permutation () =
  (* Reordering two independent non-transactional accesses of different
     threads is NOT allowed: cl(H) orders them. *)
  let b = Builder.create () in
  Builder.write b 0 x 1;
  Builder.write b 1 flag 2;
  let h = Builder.history b in
  let swapped =
    History.of_list
      [ History.get h 2; History.get h 3; History.get h 0; History.get h 1 ]
  in
  check bool "cl-ordered actions cannot swap" false
    (Spo_relation.in_relation h swapped);
  check bool "identity still fine" true (Spo_relation.in_relation h h)

let test_spo_allows_txn_commute () =
  (* Two committed transactions of different threads with no
     dependencies may commute: rt is NOT preserved by ⊑. *)
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.write b 0 x 1;
  Builder.commit b 0;
  Builder.txbegin b 1;
  Builder.write b 1 flag 2;
  Builder.commit b 1;
  let h = Builder.history b in
  let block1 = List.init 6 (fun i -> History.get h i) in
  let block2 = List.init 6 (fun i -> History.get h (6 + i)) in
  let swapped = History.of_list (block2 @ block1) in
  check bool "independent txns commute" true
    (Spo_relation.in_relation h swapped)

let test_spo_not_permutation () =
  let h1 = Helpers.publication_history () in
  let h2 = Helpers.agreement_history () in
  check bool "different histories unrelated" false
    (Spo_relation.in_relation h1 h2)

(* --------------------------- consistency -------------------------- *)

let test_consistency_ok () =
  List.iter
    (fun h -> check bool "consistent" true (Consistency.check_history h))
    [
      Helpers.publication_history ();
      Helpers.privatization_fenced_history ();
      Helpers.agreement_history ();
      Helpers.h0_history ();
    ]

let test_consistency_aborted_read () =
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.write b 0 x 5;
  Builder.abort_commit b 0;
  Builder.txbegin b 1;
  Builder.read b 1 x 5;
  Builder.commit b 1;
  check bool "reading an aborted write is inconsistent" false
    (Consistency.check_history (Builder.history b))

let test_consistency_local_read () =
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.write b 0 x 5;
  Builder.write b 0 x 6;
  Builder.read b 0 x 6;
  Builder.commit b 0;
  check bool "local read of most recent own write" true
    (Consistency.check_history (Builder.history b));
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.write b 0 x 5;
  Builder.write b 0 x 6;
  Builder.read b 0 x 5;
  (* stale own write *)
  Builder.commit b 0;
  check bool "local read of stale own write inconsistent" false
    (Consistency.check_history (Builder.history b))

let test_consistency_overwritten_write () =
  (* Reading a local (overwritten) write of another transaction is
     inconsistent. *)
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.write b 0 x 5;
  Builder.write b 0 x 6;
  Builder.commit b 0;
  Builder.read b 1 x 5;
  check bool "overwritten write not readable" false
    (Consistency.check_history (Builder.history b))

let test_local_action_predicates () =
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.write b 0 x 5;
  (* index 2: local write (overwritten) *)
  Builder.read b 0 x 5;
  (* index 4: local read *)
  Builder.write b 0 x 6;
  (* index 6: non-local write *)
  Builder.commit b 0;
  let info = History.analyze (Builder.history b) in
  check bool "local write" true (Consistency.is_local_write info 2);
  check bool "local read" true (Consistency.is_local_read info 4);
  check bool "last write not local" false (Consistency.is_local_write info 6)

(* ------------------------- opacity graphs ------------------------- *)

let test_graph_nodes () =
  let rels = Relations.of_history (Helpers.publication_history ()) in
  match Graph.build rels with
  | Error msg -> Alcotest.fail msg
  | Ok g ->
      check Alcotest.int "three nodes (2 txns + 1 access)" 3
        (Array.length g.Graph.nodes);
      check bool "acyclic" true (Graph.is_acyclic g);
      check bool "thm 6.6 side condition" true (Graph.hb_deps_irreflexive g);
      check bool "txn-cycle free" true (Graph.txn_cycle_free g)

let test_graph_doomed_cycle () =
  (* The doomed-read anomaly yields a cycle T2 -RW-> T1 -HB-> ν -WR-> T2. *)
  let rels = Relations.of_history (Helpers.doomed_read_history ()) in
  match Graph.build rels with
  | Error msg -> Alcotest.fail msg
  | Ok g -> check bool "cyclic" false (Graph.is_acyclic g)

let test_graph_witness_verifies () =
  List.iter
    (fun h ->
      let rels = Relations.of_history h in
      match Graph.build rels with
      | Error msg -> Alcotest.fail msg
      | Ok g -> (
          check bool "acyclic" true (Graph.is_acyclic g);
          match Graph.witness g with
          | None -> Alcotest.fail "expected witness"
          | Some s ->
              check bool "witness in H_atomic" true (Tm_atomic.Atomic_tm.mem s);
              check bool "H ⊑ witness" true (Spo_relation.in_relation h s)))
    [
      Helpers.publication_history ();
      Helpers.privatization_fenced_history ();
      Helpers.agreement_history ();
      Helpers.h0_history ();
    ]

(* ---------------------------- checker ----------------------------- *)

let test_checker_opaque_histories () =
  List.iter
    (fun (name, h) ->
      check bool name true (Checker.is_opaque (Checker.check h)))
    [
      ("publication", Helpers.publication_history ());
      ("fenced privatization", Helpers.privatization_fenced_history ());
      ("agreement", Helpers.agreement_history ());
      ("H0", Helpers.h0_history ());
    ]

let test_checker_doomed_not_opaque () =
  match Checker.check (Helpers.doomed_read_history ()) with
  | Checker.Cyclic _ -> ()
  | v ->
      Alcotest.failf "expected Cyclic, got %a" Checker.pp_verdict v

let test_checker_inconsistent () =
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.write b 0 x 5;
  Builder.abort_commit b 0;
  Builder.read b 1 x 5;
  match Checker.check (Builder.history b) with
  | Checker.Inconsistent _ -> ()
  | v -> Alcotest.failf "expected Inconsistent, got %a" Checker.pp_verdict v

let test_oracle_agreement_on_figures () =
  List.iter
    (fun (name, h, expected) ->
      check bool
        (name ^ " (oracle)")
        expected
        (Checker.check_exhaustive_witness h);
      check bool
        (name ^ " (graph checker)")
        expected
        (Checker.is_opaque (Checker.check h)))
    [
      ("publication", Helpers.publication_history (), true);
      ("fenced privatization", Helpers.privatization_fenced_history (), true);
      ("agreement", Helpers.agreement_history (), true);
      ("doomed read", Helpers.doomed_read_history (), false);
      ("H0", Helpers.h0_history (), true);
    ]

(* The delayed-commit history is racy; strong opacity only speaks about
   DRF histories, but the graph checker still detects that it has no
   atomic justification (T2's commit overwrote ν against rt order is
   fine for ⊑, so it may actually be opaque — the anomaly shows up in
   program outcomes, not in ⊑).  Just assert checker and oracle agree. *)
let test_delayed_commit_checker_agrees_oracle () =
  let h = Helpers.delayed_commit_history () in
  let oracle = Checker.check_exhaustive_witness h in
  let graph = Checker.is_opaque (Checker.check h) in
  check bool "checker agrees with oracle" oracle graph

(* ----------------------- checker fallback path --------------------- *)

(* A history whose canonical WW order (write-back time) is wrong but
   where another WW order yields an acyclic graph: two commit-pending
   transactions whose writes are never read, ordered by the fallback
   search.  Exercises Graph.build's ww_orders parameter and the
   enumeration in Checker.check. *)
let test_checker_fallback_ww_orders () =
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.write b 0 x 5;
  Builder.commit b 0;
  Builder.txbegin b 1;
  Builder.read b 1 x 5;
  Builder.write b 1 x 6;
  Builder.commit b 1;
  let h = Builder.history b in
  let rels = Relations.of_history h in
  (* explicit orders: the correct one and the reversed one *)
  match Graph.build rels with
  | Error msg -> Alcotest.fail msg
  | Ok g0 ->
      let writers = Graph.visible_writers g0 x in
      check Alcotest.int "two writers of x" 2 (List.length writers);
      (match Graph.build ~ww_orders:[ (x, writers) ] rels with
      | Ok g -> check bool "correct order acyclic" true (Graph.is_acyclic g)
      | Error msg -> Alcotest.fail msg);
      (match Graph.build ~ww_orders:[ (x, List.rev writers) ] rels with
      | Ok g ->
          check bool "reversed order cyclic" false (Graph.is_acyclic g)
      | Error msg -> Alcotest.fail msg);
      (* a non-permutation is rejected *)
      (match Graph.build ~ww_orders:[ (x, [ List.hd writers ]) ] rels with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected rejection of bad ww_orders")

let test_permutations_with_duplicates () =
  (* Regression: the old implementation removed the pivot with
     List.filter, which drops *every* occurrence of a duplicate element
     and so under-enumerates (e.g. [1;1;2] produced only 3 candidate
     orders).  Positional removal must yield all n! sequences. *)
  let perms l = List.of_seq (Checker.permutations l) in
  check Alcotest.int "3! perms of [1;1;2]" 6
    (List.length (perms [ 1; 1; 2 ]));
  let sorted = List.sort compare (perms [ 1; 1; 2 ]) in
  check
    Alcotest.(list (list int))
    "multiset preserved"
    [
      [ 1; 1; 2 ]; [ 1; 1; 2 ]; [ 1; 2; 1 ]; [ 1; 2; 1 ];
      [ 2; 1; 1 ]; [ 2; 1; 1 ];
    ]
    sorted;
  check Alcotest.int "4! perms of [0;0;0;0]" 24
    (List.length (perms [ 0; 0; 0; 0 ]));
  check Alcotest.(list (list int)) "empty list" [ [] ] (perms []);
  let distinct = perms [ 1; 2; 3 ] in
  check Alcotest.int "3! perms of distinct" 6 (List.length distinct);
  check Alcotest.int "all distinct orders present" 6
    (List.length (List.sort_uniq compare distinct))

(* A TM that writes back before it logs [committed] (TL2, TLRW) can be
   read from first: T2 reads T1's x, writes x and completes while T1's
   [committed] is still pending.  Ordering the writers of x by
   completion puts T2 before T1 against the read (a cycle); the
   canonical order places T1 where T2 first reads from it. *)
let read_before_committed_history () =
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.write b 0 Helpers.x 1;
  Builder.request b 0 Action.Txcommit;
  Builder.txbegin b 1;
  Builder.read b 1 Helpers.x 1;
  Builder.write b 1 Helpers.x 2;
  Builder.commit b 1;
  Builder.response b 0 Action.Committed;
  Builder.history b

let test_canonical_read_before_committed () =
  let h = read_before_committed_history () in
  let rels = Relations.of_history h in
  let by_completion = function
    | Graph.Txn k as n -> (
        match History.txn_completion rels.Relations.info k with
        | Some c -> c
        | None -> Graph.default_write_stamp rels n)
    | n -> Graph.default_write_stamp rels n
  in
  (match Graph.build ~write_stamp:by_completion rels with
  | Ok g -> check bool "completion order is cyclic" false (Graph.is_acyclic g)
  | Error msg -> Alcotest.fail msg);
  check bool "canonical check accepts" true
    (Checker.is_opaque (Checker.check_canonical h));
  check bool "monitor accepts" true (Monitor.check h = Monitor.Ok)

(* The other end of the window: T1 reads y = vinit, writes x and logs
   txcommit; T2 writes x and y and completes before T1 logs
   [committed].  By completion, T2 precedes T1 on x, but T1 read the y
   that T2 overwrote (a cycle); at their txcommit requests T1 precedes
   T2. *)
let committer_descheduled_history () =
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.read b 0 Helpers.flag Types.v_init;
  Builder.write b 0 Helpers.x 1;
  Builder.request b 0 Action.Txcommit;
  Builder.txbegin b 1;
  Builder.write b 1 Helpers.x 2;
  Builder.write b 1 Helpers.flag 3;
  Builder.commit b 1;
  Builder.response b 0 Action.Committed;
  Builder.history b

let test_canonical_committer_descheduled () =
  let h = committer_descheduled_history () in
  let rels = Relations.of_history h in
  (match Graph.build rels with
  | Ok g -> check bool "canonical order is cyclic" false (Graph.is_acyclic g)
  | Error msg -> Alcotest.fail msg);
  (match Graph.build ~write_stamp:(Graph.commit_request_stamp rels) rels with
  | Ok g -> check bool "txcommit order is acyclic" true (Graph.is_acyclic g)
  | Error msg -> Alcotest.fail msg);
  check bool "canonical check accepts" true
    (Checker.is_opaque (Checker.check_canonical h))

let test_graph_invalid_vis () =
  (* forcing a read-from commit-pending transaction invisible violates
     Definition 6.3 *)
  let h = Helpers.h0_history () in
  let rels = Relations.of_history h in
  match Graph.build ~vis_pending:(fun _ -> false) rels with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected invalid graph (read from invisible)"

(* -------------------------- classic opacity ------------------------ *)

let txn_only_history () =
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.write b 0 x 5;
  Builder.commit b 0;
  Builder.txbegin b 1;
  Builder.read b 1 x 5;
  Builder.commit b 1;
  Builder.history b

let test_classic_applicable () =
  check bool "txn-only applicable" true
    (Classic.applicable (txn_only_history ()));
  check bool "publication not applicable" false
    (Classic.applicable (Helpers.publication_history ()))

let test_classic_accepts () =
  check bool "serializable txn-only history" true
    (Classic.check (txn_only_history ()))

(* The paper's §4 point (after Filipović et al. [16]): preserving
   real-time order is unnecessary — this history is strongly opaque but
   NOT classically opaque, because T2 (which began after T1 completed)
   must serialize before T1. *)
let rt_breaking_history () =
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.write b 0 x 5;
  Builder.commit b 0;
  (* T1 writes x *)
  Builder.txbegin b 1;
  Builder.read b 1 x 0;
  (* T2 reads the OLD (initial) value *)
  Builder.commit b 1;
  Builder.history b

let test_classic_vs_strong () =
  let h = rt_breaking_history () in
  check bool "applicable" true (Classic.applicable h);
  check bool "not classically opaque (rt forces T1 before T2)" false
    (Classic.check h);
  check bool "strongly opaque (hb does not order them)" true
    (Checker.strongly_opaque h)

let prop_classic_implies_strong =
  QCheck.Test.make ~name:"classic opacity implies strong opacity" ~count:200
    QCheck.small_int
    (fun seed ->
      let h =
        Tm_workloads.History_gen.generate ~seed:(seed * 23) ~threads:2
          ~registers:2 ~steps:4 ()
      in
      (not (Classic.applicable h))
      || (not (Classic.check h))
      || Checker.strongly_opaque h)

(* ------------------------ incremental monitor ---------------------- *)

let test_monitor_figures () =
  let ok h = Monitor.check h = Monitor.Ok in
  check bool "publication ok" true (ok (Helpers.publication_history ()));
  check bool "fenced privatization ok" true
    (ok (Helpers.privatization_fenced_history ()));
  check bool "agreement ok" true (ok (Helpers.agreement_history ()));
  check bool "H0 ok" true (ok (Helpers.h0_history ()));
  (match Monitor.check (Helpers.doomed_read_history ()) with
  | Monitor.Cyclic -> ()
  | v -> Alcotest.failf "doomed: expected Cyclic, got %a" Monitor.pp_verdict v)

let test_monitor_inconsistent_reads () =
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.write b 0 x 5;
  Builder.abort_commit b 0;
  Builder.read b 1 x 5;
  (match Monitor.check (Builder.history b) with
  | Monitor.Inconsistent _ -> ()
  | v -> Alcotest.failf "expected Inconsistent, got %a" Monitor.pp_verdict v);
  (* read from a live transaction that never reaches txcommit *)
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.write b 0 x 5;
  Builder.txbegin b 1;
  Builder.read b 1 x 5;
  Builder.commit b 1;
  match Monitor.check (Builder.history b) with
  | Monitor.Inconsistent _ -> ()
  | v -> Alcotest.failf "expected Inconsistent, got %a" Monitor.pp_verdict v

let test_monitor_incremental_api () =
  let h = Helpers.publication_history () in
  let m = Monitor.create ~threads:2 in
  Array.iter (fun a -> Monitor.step m a) h;
  check bool "verdict ok" true (Monitor.verdict m = Monitor.Ok);
  check bool "nodes counted" true (Monitor.node_count m = 3);
  check bool "edges exist" true (Monitor.edge_count m > 0)

let prop_monitor_sound =
  QCheck.Test.make
    ~name:"monitor Ok implies the offline checker accepts" ~count:250
    QCheck.small_int
    (fun seed ->
      let h =
        Tm_workloads.History_gen.generate ~seed:(seed * 29) ~threads:3
          ~registers:3 ~steps:5 ()
      in
      Monitor.check h <> Monitor.Ok || Checker.strongly_opaque h)

(* --------------------- theorem-level properties -------------------- *)

(* Theorem 6.6: for a DRF history whose canonical graph satisfies the
   irreflexivity side condition, a cycle in the full graph implies a
   cycle over transactions only in RT ∪ WR ∪ WW ∪ RW. *)
let prop_theorem_6_6 =
  QCheck.Test.make ~name:"theorem 6.6 cycle reduction" ~count:250
    QCheck.small_int
    (fun seed ->
      let h =
        Tm_workloads.History_gen.generate ~seed:(seed * 3) ~threads:2
          ~registers:2 ~steps:5 ()
      in
      let rels = Relations.of_history h in
      (not (Race.is_drf rels))
      ||
      match Graph.build rels with
      | Error _ -> true (* graph construction constraint violated *)
      | Ok g ->
          (not (Graph.hb_deps_irreflexive g))
          || Graph.is_acyclic g
          || not (Graph.txn_cycle_free g))

(* The core fact behind the Rearrangement Lemma (B.1): ⊑ preserves
   per-thread and non-transactional projections, i.e. h ⊑ s implies
   h ∼ s.  Exercised on checker-produced witnesses. *)
let prop_spo_implies_equivalent =
  QCheck.Test.make ~name:"⊑ implies observational equivalence" ~count:150
    QCheck.small_int
    (fun seed ->
      let h =
        Tm_workloads.History_gen.generate ~seed:(seed * 11) ~threads:2
          ~registers:2 ~steps:4 ()
      in
      match Checker.check h with
      | Checker.Opaque s ->
          Spo_relation.in_relation h s && Obs_equiv.equivalent h s
      | Checker.Inconsistent _ | Checker.Cyclic _ | Checker.Invalid_graph _ ->
          true)

let test_obs_equiv_basics () =
  let h = Helpers.publication_history () in
  check bool "reflexive" true (Obs_equiv.equivalent h h);
  let h2 = Helpers.agreement_history () in
  check bool "different histories inequivalent" false
    (Obs_equiv.equivalent h h2);
  check bool "refines reflexive" true (Obs_equiv.refines [ h; h2 ] [ h2; h ])

let test_obs_equiv_txn_commute () =
  (* two independent committed transactions of different threads
     commute without changing observations *)
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.write b 0 Helpers.x 1;
  Builder.commit b 0;
  Builder.txbegin b 1;
  Builder.write b 1 Helpers.flag 2;
  Builder.commit b 1;
  let h = Builder.history b in
  let block1 = List.init 6 (fun i -> History.get h i) in
  let block2 = List.init 6 (fun i -> History.get h (6 + i)) in
  let swapped = History.of_list (block2 @ block1) in
  check bool "swapped txns equivalent" true (Obs_equiv.equivalent h swapped)

let test_obs_equiv_nontxn_order_matters () =
  let b = Builder.create () in
  Builder.write b 0 Helpers.x 1;
  Builder.write b 1 Helpers.flag 2;
  let h = Builder.history b in
  let swapped =
    History.of_list
      [ History.get h 2; History.get h 3; History.get h 0; History.get h 1 ]
  in
  check bool "nontxn reorder not equivalent" false
    (Obs_equiv.equivalent h swapped)

let () =
  Alcotest.run "tm_opacity"
    [
      ( "spo relation",
        [
          Alcotest.test_case "identity" `Quick test_spo_identity;
          Alcotest.test_case "cl preserved" `Quick test_spo_permutation;
          Alcotest.test_case "independent txns commute" `Quick
            test_spo_allows_txn_commute;
          Alcotest.test_case "non-permutations" `Quick test_spo_not_permutation;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "figure histories consistent" `Quick
            test_consistency_ok;
          Alcotest.test_case "aborted read" `Quick test_consistency_aborted_read;
          Alcotest.test_case "local reads" `Quick test_consistency_local_read;
          Alcotest.test_case "overwritten writes" `Quick
            test_consistency_overwritten_write;
          Alcotest.test_case "local predicates" `Quick
            test_local_action_predicates;
        ] );
      ( "graphs",
        [
          Alcotest.test_case "nodes and acyclicity" `Quick test_graph_nodes;
          Alcotest.test_case "doomed cycle" `Quick test_graph_doomed_cycle;
          Alcotest.test_case "witness verification" `Quick
            test_graph_witness_verifies;
        ] );
      ( "incremental monitor",
        [
          Alcotest.test_case "figure histories" `Quick test_monitor_figures;
          Alcotest.test_case "inconsistent reads" `Quick
            test_monitor_inconsistent_reads;
          Alcotest.test_case "incremental API" `Quick
            test_monitor_incremental_api;
        ] );
      ( "observational equivalence",
        [
          Alcotest.test_case "basics" `Quick test_obs_equiv_basics;
          Alcotest.test_case "txn commute" `Quick test_obs_equiv_txn_commute;
          Alcotest.test_case "nontxn order" `Quick
            test_obs_equiv_nontxn_order_matters;
        ] );
      ( "classic opacity",
        [
          Alcotest.test_case "applicability" `Quick test_classic_applicable;
          Alcotest.test_case "accepts serializable" `Quick test_classic_accepts;
          Alcotest.test_case "strictly stronger than strong opacity"
            `Quick test_classic_vs_strong;
        ] );
      ( "theorem properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_theorem_6_6; prop_spo_implies_equivalent;
            prop_classic_implies_strong; prop_monitor_sound;
          ] );
      ( "checker",
        [
          Alcotest.test_case "opaque histories" `Quick
            test_checker_opaque_histories;
          Alcotest.test_case "doomed not opaque" `Quick
            test_checker_doomed_not_opaque;
          Alcotest.test_case "inconsistent history" `Quick
            test_checker_inconsistent;
          Alcotest.test_case "oracle agreement" `Quick
            test_oracle_agreement_on_figures;
          Alcotest.test_case "delayed commit agreement" `Quick
            test_delayed_commit_checker_agrees_oracle;
          Alcotest.test_case "fallback WW enumeration" `Quick
            test_checker_fallback_ww_orders;
          Alcotest.test_case "permutations keep duplicates" `Quick
            test_permutations_with_duplicates;
          Alcotest.test_case "invalid visibility rejected" `Quick
            test_graph_invalid_vis;
          Alcotest.test_case "canonical order: read before committed" `Quick
            test_canonical_read_before_committed;
          Alcotest.test_case "canonical order: committer descheduled" `Quick
            test_canonical_committer_descheduled;
        ] );
    ]
