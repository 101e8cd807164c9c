(* Shared history constructors used across the test suites.  The
   histories mirror the paper's figures: registers [flag] stands for
   x_is_private and [x] for the privatized object. *)

open Tm_model

let x = 0
let flag = 1

(* [histories/] sits at the repo root: dune runs the suites from
   [_build/default/test], where it is [../histories]; run by hand from
   the root, it is [histories]. *)
let histories_dir =
  List.find_opt
    (fun d -> Sys.file_exists (Filename.concat d "publication.txt"))
    [ "../histories"; "histories" ]
  |> Option.value ~default:"../histories"

(* Figure 2 (publication), the only execution with both conflicting
   accesses: ν T1 T2 where ν writes x non-transactionally, T1 clears
   the flag, T2 reads the flag and then x. *)
let publication_history () =
  let b = Builder.create () in
  Builder.write b 0 x 42;
  (* ν *)
  Builder.txbegin b 0;
  (* T1 *)
  Builder.write b 0 flag 1;
  Builder.commit b 0;
  Builder.txbegin b 1;
  (* T2 *)
  Builder.read b 1 flag 1;
  Builder.read b 1 x 42;
  Builder.commit b 1;
  Builder.history b

(* Figure 1 with a fence between T1 and ν, in the only order where the
   conflict materializes: T2 T1 fence ν. *)
let privatization_fenced_history () =
  let b = Builder.create () in
  Builder.txbegin b 1;
  (* T2 *)
  Builder.read b 1 flag 0;
  Builder.write b 1 x 42;
  Builder.commit b 1;
  Builder.txbegin b 0;
  (* T1 *)
  Builder.write b 0 flag 1;
  Builder.commit b 0;
  Builder.fence b 0;
  Builder.write b 0 x 7;
  (* ν *)
  Builder.history b

(* Figure 1(a) without the fence, in the racy interleaving exhibiting
   the delayed commit problem: T1 commits, ν runs, then T2 (which began
   before T1 committed, reading the flag as unprivatized) writes x and
   commits — overwriting ν.  The history is racy. *)
let delayed_commit_history () =
  let b = Builder.create () in
  Builder.txbegin b 1;
  (* T2 begins, sees flag = 0 *)
  Builder.read b 1 flag 0;
  Builder.txbegin b 0;
  (* T1 privatizes *)
  Builder.write b 0 flag 1;
  Builder.commit b 0;
  Builder.write b 0 x 7;
  (* ν, non-transactional *)
  Builder.write b 1 x 42;
  (* T2's buffered write *)
  Builder.commit b 1;
  Builder.history b

(* Figure 1(b)'s doomed-transaction anomaly as a history: T2 reads the
   flag as 0, T1 privatizes and commits, ν writes x non-transactionally
   and then doomed T2 reads ν's value of x. *)
let doomed_read_history () =
  let b = Builder.create () in
  Builder.txbegin b 1;
  Builder.read b 1 flag 0;
  Builder.txbegin b 0;
  Builder.write b 0 flag 1;
  Builder.commit b 0;
  Builder.write b 0 x 7;
  (* ν *)
  Builder.read b 1 x 7;
  (* doomed T2 observes the private write *)
  Builder.history b

(* Figure 6 (privatization by agreement outside transactions): T writes
   x transactionally, then the flag is passed hand-over-hand by
   non-transactional accesses. *)
let agreement_history () =
  let b = Builder.create () in
  Builder.txbegin b 0;
  (* T *)
  Builder.write b 0 x 42;
  Builder.commit b 0;
  Builder.write b 0 flag 1;
  (* ν *)
  Builder.read b 1 flag 1;
  (* ν' *)
  Builder.read b 1 x 42;
  (* ν'' *)
  Builder.history b

(* Figure 3 (racy program): T writes x and y; the two non-transactional
   reads run between T's writes taking effect — modeled as the history
   where ν1 reads the new x and ν2 the old y while T is commit-pending
   or committed.  Any interleaving here leaves the accesses unordered
   with T in happens-before, so the history is racy. *)
let racy_history () =
  let y = 2 in
  let b = Builder.create () in
  Builder.txbegin b 0;
  (* T *)
  Builder.write b 0 x 1;
  Builder.write b 0 y 2;
  Builder.commit b 0;
  Builder.read b 1 x 1;
  (* ν1 *)
  Builder.read b 1 y 0;
  (* ν2: observes the intermediate state *)
  Builder.history b

(* The paper's H0 (§2.4): commit-pending t1, live t2 writing x, and a
   non-transactional read by t3 returning t1's value. *)
let h0_history () =
  let b = Builder.create () in
  Builder.txbegin b 0;
  Builder.write b 0 x 1;
  Builder.request b 0 Action.Txcommit;
  Builder.txbegin b 1;
  Builder.write b 1 x 2;
  Builder.read b 2 x 1;
  Builder.history b
