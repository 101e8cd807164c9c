open Effect
open Effect.Deep

type _ Effect.t +=
  | Yield : unit Effect.t
  | Spin : unit Effect.t
  | Backoff : unit Effect.t

module Hooks : Tm_runtime.Sched_intf.S = struct
  let yield () = perform Yield
  let spin () = perform Spin

  (* The wait's length is irrelevant to a cooperative scheduler: one
     scheduling point stands for all of it. *)
  let backoff _ = perform Backoff
end

let unscheduled f =
  match_with f ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield -> Some (fun (k : (a, _) continuation) -> continue k ())
          | Spin -> Some (fun (k : (a, _) continuation) -> continue k ())
          | Backoff -> Some (fun (k : (a, _) continuation) -> continue k ())
          | _ -> None);
    }

type pick = step:int -> current:int option -> runnable:int list -> int

type run_info = {
  schedule : int list;
  runnables : int list list;
  completed : bool array;
  livelocked : bool;
  step_limit_hit : bool;
  steps : int;
}

(* ------------------------------ engine ----------------------------- *)

type fiber =
  | Start of (unit -> unit)
  | Paused of (unit, unit) continuation
  | Parked of (unit, unit) continuation
      (** suspended in [spin]: cannot progress until another thread
          takes a step *)
  | Finished

let run ?(max_steps = 100_000) ~(pick : pick) (bodies : (unit -> unit) array)
    =
  let n = Array.length bodies in
  let state = Array.map (fun body -> Start body) bodies in
  let unfinished = ref n in
  let finish i =
    state.(i) <- Finished;
    decr unfinished
  in
  let handler i =
    {
      retc = (fun () -> finish i);
      exnc =
        (fun e ->
          finish i;
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
              Some (fun (k : (a, unit) continuation) -> state.(i) <- Paused k)
          | Spin ->
              Some (fun (k : (a, unit) continuation) -> state.(i) <- Parked k)
          | Backoff ->
              (* Park until another thread steps — retrying before that
                 would meet the same conflict — unless none is left to
                 step (only [i] is unfinished): the conflicting
                 transaction may have finished since the abort, so that
                 is no livelock. *)
              Some
                (fun (k : (a, unit) continuation) ->
                  state.(i) <- (if !unfinished > 1 then Parked k else Paused k))
          | _ -> None);
    }
  in
  let is_runnable i =
    match state.(i) with Start _ | Paused _ -> true | Parked _ | Finished -> false
  in
  let schedule = ref [] in
  let runnables = ref [] in
  let steps = ref 0 in
  let livelocked = ref false in
  let limit_hit = ref false in
  let last = ref (-1) in
  let finished = ref false in
  while not !finished do
    let runnable = List.filter is_runnable (List.init n Fun.id) in
    if runnable = [] then begin
      if Array.exists (function Parked _ -> true | _ -> false) state then
        livelocked := true;
      finished := true
    end
    else if !steps >= max_steps then begin
      limit_hit := true;
      finished := true
    end
    else begin
      let current =
        if !last >= 0 && is_runnable !last then Some !last else None
      in
      let i = pick ~step:!steps ~current ~runnable in
      let i = if List.mem i runnable then i else List.hd runnable in
      schedule := i :: !schedule;
      runnables := runnable :: !runnables;
      incr steps;
      last := i;
      (match state.(i) with
      | Start f -> match_with f () (handler i)
      | Paused k -> continue k ()
      | Parked _ | Finished -> assert false);
      (* A step by [i] may have unblocked the spinners of every other
         thread; [i] itself stays parked if it just parked (a spin step
         re-run without interference is a no-op by contract). *)
      Array.iteri
        (fun j s ->
          if j <> i then
            match s with Parked k -> state.(j) <- Paused k | _ -> ())
        state
    end
  done;
  {
    schedule = List.rev !schedule;
    runnables = List.rev !runnables;
    completed =
      Array.map (function Finished -> true | _ -> false) state;
    livelocked = !livelocked;
    step_limit_hit = !limit_hit;
    steps = !steps;
  }

(* ----------------------------- picking ----------------------------- *)

let default_pick ~current ~runnable =
  match current with
  | Some c when List.mem c runnable -> c
  | _ -> List.hd runnable

let pick_of_prefix prefix : pick =
 fun ~step ~current ~runnable ->
  if step < Array.length prefix && List.mem prefix.(step) runnable then
    prefix.(step)
  else default_pick ~current ~runnable

let pick_random rs : pick =
 fun ~step:_ ~current:_ ~runnable ->
  List.nth runnable (Random.State.int rs (List.length runnable))

(* PCT [Burckhardt et al., ASPLOS'10]: random thread priorities, run
   the highest-priority runnable thread, and lower the running
   thread's priority at [depth - 1] random change points. *)
let pick_pct rs ~nthreads ~depth ~expected_steps : pick =
  let prio = Array.init nthreads (fun i -> i) in
  (* Fisher-Yates on priorities: higher value = runs first *)
  for i = nthreads - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let tmp = prio.(i) in
    prio.(i) <- prio.(j);
    prio.(j) <- tmp
  done;
  let nchanges = max 0 (depth - 1) in
  let changes = Hashtbl.create 8 in
  let horizon = max (nchanges + 1) expected_steps in
  while Hashtbl.length changes < min nchanges horizon do
    Hashtbl.replace changes (1 + Random.State.int rs horizon) ()
  done;
  let next_low = ref (-1) in
  fun ~step ~current:_ ~runnable ->
    let best () =
      List.fold_left
        (fun acc i ->
          match acc with
          | Some b when prio.(b) >= prio.(i) -> acc
          | _ -> Some i)
        None runnable
      |> Option.get
    in
    let c = best () in
    if Hashtbl.mem changes step then begin
      prio.(c) <- !next_low;
      decr next_low;
      best ()
    end
    else c

(* --------------------------- exploration --------------------------- *)

type 'a found = {
  f_schedule : int list;
  f_exec : int;
  f_seed : int option;
  f_value : 'a;
}

type 'a outcome = Found of 'a found | Passed of { execs : int; complete : bool }

type spec =
  | Exhaustive of { preemptions : int; max_execs : int }
  | Random of { seed : int; execs : int }
  | Pct of { seed : int; execs : int; depth : int }

(* SplitMix-style avalanche: the per-execution replay seed depends only
   on (seed, execution index), mirroring [Runner.trial_seed]. *)
let exec_seed ~seed k =
  let z = seed + (k * 0x9e3779b9) in
  let z = (z lxor (z lsr 16)) * 0x85ebca6b in
  let z = (z lxor (z lsr 13)) * 0xc2b2ae35 in
  (z lxor (z lsr 16)) land max_int

let explore_exhaustive ~preemptions:bound ~max_execs ~run ~is_bug =
  let stack = ref [ [||] ] in
  let execs = ref 0 in
  let found = ref None in
  while !found = None && !stack <> [] && !execs < max_execs do
    let prefix = List.hd !stack in
    stack := List.tl !stack;
    incr execs;
    let info, v = run ~pick:(pick_of_prefix prefix) in
    if is_bug v then
      found :=
        Some
          { f_schedule = info.schedule; f_exec = !execs; f_seed = None;
            f_value = v }
    else begin
      let sched = Array.of_list info.schedule in
      let runs = Array.of_list info.runnables in
      let len = Array.length sched in
      (* preemption count of each schedule prefix: position [i] is a
         preemption iff the previous thread was still runnable there
         and a different one was chosen *)
      let is_preempt i alt =
        i > 0 && List.mem sched.(i - 1) runs.(i) && alt <> sched.(i - 1)
      in
      let pre = Array.make (len + 1) 0 in
      for i = 0 to len - 1 do
        pre.(i + 1) <- (pre.(i) + if is_preempt i sched.(i) then 1 else 0)
      done;
      (* Push untried siblings of every choice beyond the prefix,
         shallow first so the deepest ends on top (depth-first). *)
      for i = Array.length prefix to len - 1 do
        List.iter
          (fun alt ->
            if
              alt <> sched.(i)
              && pre.(i) + (if is_preempt i alt then 1 else 0) <= bound
            then
              stack :=
                Array.append (Array.sub sched 0 i) [| alt |] :: !stack)
          runs.(i)
      done
    end
  done;
  match !found with
  | Some f -> Found f
  | None -> Passed { execs = !execs; complete = !stack = [] }

let explore_random ~seed ~execs ~run ~is_bug =
  let found = ref None in
  let k = ref 0 in
  while !found = None && !k < execs do
    incr k;
    let es = exec_seed ~seed !k in
    let rs = Random.State.make [| es |] in
    let info, v = run ~pick:(pick_random rs) in
    if is_bug v then
      found :=
        Some
          { f_schedule = info.schedule; f_exec = !k; f_seed = Some es;
            f_value = v }
  done;
  match !found with
  | Some f -> Found f
  | None -> Passed { execs = !k; complete = false }

(* The probe measures the expected execution length for placing PCT
   change points; it is deterministic (default pick), so a replay of a
   per-execution seed reconstructs the same change points. *)
let pct_probe ~run =
  let info, v = run ~pick:(fun ~step:_ -> default_pick) in
  (max 16 info.steps, info, v)

let explore_pct ~seed ~execs ~depth ~nthreads ~run ~is_bug =
  let expected_steps, probe_info, probe_v = pct_probe ~run in
  if is_bug probe_v then
    Found
      { f_schedule = probe_info.schedule; f_exec = 0; f_seed = None;
        f_value = probe_v }
  else begin
    let found = ref None in
    let k = ref 0 in
    while !found = None && !k < execs do
      incr k;
      let es = exec_seed ~seed !k in
      let rs = Random.State.make [| es |] in
      let info, v =
        run ~pick:(pick_pct rs ~nthreads ~depth ~expected_steps)
      in
      if is_bug v then
        found :=
          Some
            { f_schedule = info.schedule; f_exec = !k; f_seed = Some es;
              f_value = v }
    done;
    match !found with
    | Some f -> Found f
    | None -> Passed { execs = !k + 1; complete = false }
  end

let explore ~nthreads spec ~run ~is_bug =
  match spec with
  | Exhaustive { preemptions; max_execs } ->
      explore_exhaustive ~preemptions ~max_execs ~run ~is_bug
  | Random { seed; execs } -> explore_random ~seed ~execs ~run ~is_bug
  | Pct { seed; execs; depth } ->
      explore_pct ~seed ~execs ~depth ~nthreads ~run ~is_bug

(* Rebuild the pick of one specific execution from its replay seed. *)
let pick_of_seed spec ~nthreads ~run es =
  match spec with
  | Exhaustive _ -> invalid_arg "pick_of_seed: exhaustive replays by schedule"
  | Random _ -> pick_random (Random.State.make [| es |])
  | Pct { depth; _ } ->
      let expected_steps, _, _ = pct_probe ~run in
      pick_pct (Random.State.make [| es |]) ~nthreads ~depth ~expected_steps
