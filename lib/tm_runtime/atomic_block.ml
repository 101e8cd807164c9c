type 'a attempt = Committed of 'a | Aborted

(* The contention manager shared by every TM: randomized, bounded
   exponential backoff between attempts.  The k-th consecutive abort
   waits a uniform 1..2^min(k+1, 10) [cpu_relax] steps, so never more
   than 1024.  The jitter comes from a xorshift state seeded from the
   thread id at every [run] call, so a run replays identically under
   the deterministic scheduler, and threads that abort each other draw
   different waits. *)
let max_backoff_shift = 10

(* Murmur3's finaliser, as in [Sched.exec_seed]; [lor 1] keeps the
   xorshift state away from its fixed point 0. *)
let seed_of_thread thread =
  let z = (thread + 1) * 0x9e3779b9 in
  let z = (z lxor (z lsr 16)) * 0x85ebca6b in
  let z = (z lxor (z lsr 13)) * 0xc2b2ae35 in
  (z lxor (z lsr 16)) lor 1

let xorshift s =
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  s lxor (s lsl 17)

let backoff_steps ~aborts rng =
  let window = 1 lsl min (aborts + 1) max_backoff_shift in
  1 + (rng land (window - 1))

module Make_sched (S : Sched_intf.S) (T : Tm_intf.S) = struct
  let attempt tm ~thread body =
    let txn = T.txn_begin tm ~thread in
    match body txn with
    | result -> (
        match T.commit tm txn with
        | () -> Committed result
        | exception Tm_intf.Abort -> Aborted)
    | exception Tm_intf.Abort ->
        (* The TM runs its abort handler (logging + clearing the active
           flag) before raising, so there is nothing left to clean up. *)
        Aborted

  let run ?(max_retries = max_int) tm ~thread body =
    let rec go retries rng =
      match attempt tm ~thread body with
      | Committed result -> (result, retries)
      | Aborted ->
          if retries >= max_retries then
            failwith
              (Printf.sprintf "%s: transaction aborted %d times" T.name
                 retries)
          else begin
            let rng = xorshift rng in
            S.backoff (backoff_steps ~aborts:(retries + 1) rng);
            go (retries + 1) rng
          end
    in
    go 0 (seed_of_thread thread)
end

module Make (T : Tm_intf.S) = Make_sched (Sched_intf.Os) (T)
