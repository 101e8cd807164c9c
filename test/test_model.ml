(* Tests for tm_model: actions, history analysis, well-formedness. *)

open Tm_model

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* Registers used throughout the tests. *)
let x = 0
let flag = 1

let committed_txn_history () =
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.write b 0 x 1;
  Builder.read b 0 x 1;
  Builder.commit b 0;
  Builder.history b

let test_matching () =
  let h = committed_txn_history () in
  let info = History.analyze h in
  check int "length" 8 (History.length h);
  check bool "req 0 answered by 1" true (info.History.response_of.(0) = Some 1);
  check bool "resp 1 matches req 0" true (info.History.request_of.(1) = Some 0);
  check bool "req 2 answered by 3" true (info.History.response_of.(2) = Some 3)

let test_txn_extraction () =
  let h = committed_txn_history () in
  let info = History.analyze h in
  check int "one transaction" 1 (Array.length info.History.txns);
  let txn = info.History.txns.(0) in
  check bool "committed" true
    (History.equal_status txn.History.t_status History.Committed);
  check int "eight actions in txn" 8 (List.length txn.History.t_actions);
  check int "no nontxn accesses" 0 (Array.length info.History.accesses)

let test_statuses () =
  (* live txn *)
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.write b 0 x 1;
  let info = History.analyze (Builder.history b) in
  check bool "live" true
    (History.equal_status info.History.txns.(0).History.t_status History.Live);
  (* commit-pending txn *)
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.write b 0 x 1;
  Builder.request b 0 Action.Txcommit;
  let info = History.analyze (Builder.history b) in
  check bool "commit-pending" true
    (History.equal_status info.History.txns.(0).History.t_status
       History.Commit_pending);
  (* aborted mid-transaction *)
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.request b 0 (Action.Read x);
  Builder.response b 0 Action.Aborted;
  let info = History.analyze (Builder.history b) in
  check bool "aborted" true
    (History.equal_status info.History.txns.(0).History.t_status
       History.Aborted)

let test_nontxn_accesses () =
  let b = Builder.create () in
  Builder.write b 0 x 1;
  Builder.txbegin b 0;
  Builder.read b 0 x 1;
  Builder.commit b 0;
  Builder.read b 1 x 1;
  let info = History.analyze (Builder.history b) in
  check int "two nontxn accesses" 2 (Array.length info.History.accesses);
  check int "one txn" 1 (Array.length info.History.txns);
  check int "nontxn write by thread 0" 0
    info.History.accesses.(0).History.a_thread;
  check int "nontxn read by thread 1" 1
    info.History.accesses.(1).History.a_thread

let test_read_only () =
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.read b 0 x 0;
  Builder.commit b 0;
  let info = History.analyze (Builder.history b) in
  check bool "read-only" true (History.is_read_only_txn info 0);
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.write b 0 x 5;
  Builder.commit b 0;
  let info = History.analyze (Builder.history b) in
  check bool "not read-only" false (History.is_read_only_txn info 0)

let test_well_formed_ok () =
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.write b 0 x 1;
  Builder.commit b 0;
  Builder.fence b 0;
  Builder.write b 0 x 2;
  check bool "well-formed" true (History.is_well_formed (Builder.history b))

let test_wf_duplicate_value () =
  let b = Builder.create () in
  Builder.write b 0 x 7;
  Builder.write b 1 flag 7;
  check bool "duplicate write value rejected" false
    (History.is_well_formed (Builder.history b))

let test_wf_write_vinit () =
  let b = Builder.create () in
  Builder.write b 0 x Types.v_init;
  check bool "write of vinit rejected" false
    (History.is_well_formed (Builder.history b))

let test_wf_nested_txbegin () =
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.txbegin b 0;
  check bool "nested txbegin rejected" false
    (History.is_well_formed (Builder.history b))

let test_wf_response_mismatch () =
  let b = Builder.create () in
  Builder.request b 0 (Action.Read x);
  Builder.response b 0 Action.Ret_unit;
  check bool "mismatched response rejected" false
    (History.is_well_formed (Builder.history b))

let test_wf_nontxn_abort () =
  let b = Builder.create () in
  Builder.request b 0 (Action.Read x);
  Builder.response b 0 Action.Aborted;
  check bool "non-transactional abort rejected" false
    (History.is_well_formed (Builder.history b))

let test_wf_nontxn_not_atomic () =
  (* a non-transactional request not immediately answered *)
  let b = Builder.create () in
  Builder.request b 0 (Action.Read x);
  Builder.write b 1 flag 3;
  Builder.response b 0 (Action.Ret 0);
  check bool "interleaved non-transactional access rejected" false
    (History.is_well_formed (Builder.history b))

let test_wf_fence_inside_txn () =
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.fence b 0;
  check bool "fence inside transaction rejected" false
    (History.is_well_formed (Builder.history b))

let test_wf_fence_must_wait () =
  (* txn of thread 0 begins before the fence of thread 1 and has not
     completed before fend: ill-formed. *)
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.fence b 1;
  Builder.request b 0 Action.Txcommit;
  Builder.response b 0 Action.Committed;
  check bool "fence overlapping live txn rejected" false
    (History.is_well_formed (Builder.history b));
  (* completing before fend is fine *)
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.request b 1 Action.Fbegin;
  Builder.commit b 0;
  Builder.response b 1 Action.Fend;
  check bool "fence waiting for txn accepted" true
    (History.is_well_formed (Builder.history b))

let test_txn_completion () =
  let h = committed_txn_history () in
  let info = History.analyze h in
  check bool "completion is final action" true
    (History.txn_completion info 0 = Some 7)

let test_builder_fresh_values () =
  let b = Builder.create () in
  let v1 = Builder.fresh_value b in
  let v2 = Builder.fresh_value b in
  check bool "fresh values distinct" true (v1 <> v2);
  check bool "fresh values not vinit" true
    (v1 <> Types.v_init && v2 <> Types.v_init)

(* --------------------------- text format -------------------------- *)

let test_text_roundtrip () =
  let h = committed_txn_history () in
  match History.of_list (History.to_list h) |> Text.to_string |> Text.of_string with
  | Ok h' ->
      check bool "round trip equal lengths" true
        (History.length h = History.length h');
      check bool "round trip actions equal" true
        (List.for_all2 Action.equal (History.to_list h) (History.to_list h'))
  | Error msg -> Alcotest.fail msg

let test_text_parse_document () =
  let doc =
    "# privatization\n\nt0 txbegin\nt0 ok\nt0 write(x1,1)\nt0 ret\n\
     t0 txcommit\nt0 committed\nt0 fbegin\nt0 fend\nt0 write(x0,7)\nt0 ret\n"
  in
  match Text.of_string doc with
  | Ok h ->
      check int "ten actions" 10 (History.length h);
      check bool "well-formed" true (History.is_well_formed h)
  | Error msg -> Alcotest.fail msg

let test_text_parse_errors () =
  (match Text.of_string "t0 frobnicate" with
  | Error msg -> check bool "line number in error" true
      (String.length msg > 0 && String.sub msg 0 6 = "line 1")
  | Ok _ -> Alcotest.fail "expected parse error");
  (match Text.of_string "nonsense here" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error")

let test_text_parse_line () =
  check bool "comment skipped" true (Text.parse_line "# hello" = None);
  check bool "blank skipped" true (Text.parse_line "   " = None);
  check bool "read parsed" true
    (Text.parse_line "t3 read(x2)" = Some (3, Action.Request (Action.Read 2)));
  check bool "ret value parsed" true
    (Text.parse_line "t1 ret(42)" = Some (1, Action.Response (Action.Ret 42)))

(* ------------------------ sample history files --------------------- *)

let test_sample_files () =
  let load name =
    match Text.of_file (Filename.concat Helpers.histories_dir name) with
    | Ok h -> h
    | Error msg -> Alcotest.failf "cannot load %s: %s" name msg
  in
  List.iter
    (fun (name, wf) ->
      let h = load name in
      check bool (name ^ " parses well-formed") wf (History.is_well_formed h))
    [
      ("publication.txt", true);
      ("fenced_privatization.txt", true);
      ("doomed_read.txt", true);
      ("h0.txt", true);
    ];
  (* the doomed file is racy; the fenced one is not *)
  check bool "doomed_read racy" false
    (Tm_relations.Race.is_drf_history (load "doomed_read.txt"));
  check bool "fenced_privatization DRF" true
    (Tm_relations.Race.is_drf_history (load "fenced_privatization.txt"))

let () =
  Alcotest.run "tm_model"
    [
      ( "history analysis",
        [
          Alcotest.test_case "request/response matching" `Quick test_matching;
          Alcotest.test_case "transaction extraction" `Quick
            test_txn_extraction;
          Alcotest.test_case "transaction statuses" `Quick test_statuses;
          Alcotest.test_case "non-transactional accesses" `Quick
            test_nontxn_accesses;
          Alcotest.test_case "read-only transactions" `Quick test_read_only;
          Alcotest.test_case "txn completion index" `Quick test_txn_completion;
          Alcotest.test_case "builder fresh values" `Quick
            test_builder_fresh_values;
        ] );
      ( "sample files",
        [ Alcotest.test_case "histories directory" `Quick test_sample_files ] );
      ( "text format",
        [
          Alcotest.test_case "round trip" `Quick test_text_roundtrip;
          Alcotest.test_case "parse document" `Quick test_text_parse_document;
          Alcotest.test_case "parse errors" `Quick test_text_parse_errors;
          Alcotest.test_case "parse line" `Quick test_text_parse_line;
        ] );
      ( "well-formedness",
        [
          Alcotest.test_case "accepts good history" `Quick test_well_formed_ok;
          Alcotest.test_case "duplicate write value" `Quick
            test_wf_duplicate_value;
          Alcotest.test_case "write of vinit" `Quick test_wf_write_vinit;
          Alcotest.test_case "nested txbegin" `Quick test_wf_nested_txbegin;
          Alcotest.test_case "mismatched response" `Quick
            test_wf_response_mismatch;
          Alcotest.test_case "non-transactional abort" `Quick
            test_wf_nontxn_abort;
          Alcotest.test_case "non-atomic nontxn access" `Quick
            test_wf_nontxn_not_atomic;
          Alcotest.test_case "fence inside transaction" `Quick
            test_wf_fence_inside_txn;
          Alcotest.test_case "fence must wait" `Quick test_wf_fence_must_wait;
        ] );
    ]
