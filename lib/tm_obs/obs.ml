(* Low-overhead TM telemetry: per-thread sharded counters and
   log2-bucket duration histograms.

   The hot path mirrors the {!Tm_runtime.Recorder} sharding design: an
   array of shards indexed by thread id, published with an atomic
   store and grown under a small mutex, where each shard is mutated
   only by its owning thread — recording a commit, an abort cause or a
   span sample is a handful of plain int stores with no lock and no
   shared cache line.  [snapshot] merges the shards; it is meant for
   quiescent moments (after domains joined, between scheduler runs),
   like [Recorder.history].

   Counters are always on and exact (an abort is counted in the same
   breath as the TM's own [stats_aborts] atomic).  Span *timers* — the
   monotonic-clock pairs around fence waits, commit validation and
   write-lock acquisition — are sampled: each thread times one event
   in {!sample_period} per span kind ({!start_sampled}), the first
   always.  No span sits on the per-read path.  Timers can be disabled
   at runtime with [OBS=0] in the environment (the [PARALLEL]-style
   escape hatch) or {!set_timers_enabled}; a disabled timer is one
   atomic load and no clock read. *)

type abort_cause =
  | Read_validation
  | Write_lock_busy
  | Commit_validation
  | Timestamp_drift
  | Explicit
  | Fault_injected

let abort_causes =
  [
    Read_validation; Write_lock_busy; Commit_validation; Timestamp_drift;
    Explicit; Fault_injected;
  ]

let ncauses = 6

let cause_index = function
  | Read_validation -> 0
  | Write_lock_busy -> 1
  | Commit_validation -> 2
  | Timestamp_drift -> 3
  | Explicit -> 4
  | Fault_injected -> 5

let abort_cause_name = function
  | Read_validation -> "read-validation"
  | Write_lock_busy -> "write-lock-busy"
  | Commit_validation -> "commit-validation"
  | Timestamp_drift -> "timestamp-drift"
  | Explicit -> "explicit"
  | Fault_injected -> "fault-injected"

module Span = struct
  type t = Fence_wait | Commit_validation | Write_lock

  let all = [ Fence_wait; Commit_validation; Write_lock ]
  let count = 3

  let index = function
    | Fence_wait -> 0
    | Commit_validation -> 1
    | Write_lock -> 2

  let name = function
    | Fence_wait -> "fence-wait"
    | Commit_validation -> "commit-validation"
    | Write_lock -> "write-lock-acquire"
end

(* Bucket [i] counts durations in [2^i, 2^(i+1)) ns (bucket 0 also
   holds 0 ns); 40 buckets cover up to ~18 minutes. *)
let buckets = 40

let bucket_index ns =
  if ns <= 1 then 0
  else begin
    let rec floor_log2 n acc = if n <= 1 then acc else floor_log2 (n lsr 1) (acc + 1) in
    min (buckets - 1) (floor_log2 ns 0)
  end

(* ------------------------- enable/disable -------------------------- *)

let timers_on =
  let default =
    match Sys.getenv_opt "OBS" with
    | Some ("0" | "false" | "no" | "off") -> false
    | _ -> true
  in
  Atomic.make default

let timers_enabled () = Atomic.get timers_on
let set_timers_enabled b = Atomic.set timers_on b

(* ----------------------------- shards ------------------------------ *)

type shard = {
  mutable commits : int;
  aborts : int array;  (** indexed by {!cause_index} *)
  span_count : int array;  (** indexed by {!Span.index} *)
  span_total_ns : int array;
  span_buckets : int array array;  (** span x bucket *)
  span_countdown : int array;
      (** events of each span kind still to skip before the next timed
          one; per kind, so two spans per transaction never starve each
          other of samples *)
}

type t = { shards : shard array Atomic.t; grow_mutex : Mutex.t }

let fresh_shard () =
  {
    commits = 0;
    aborts = Array.make ncauses 0;
    span_count = Array.make Span.count 0;
    span_total_ns = Array.make Span.count 0;
    span_buckets = Array.init Span.count (fun _ -> Array.make buckets 0);
    span_countdown = Array.make Span.count 0;
  }

(* A TM passes its thread count so that every shard exists before the
   first span: the lazy growth path takes [grow_mutex], and a fresh TM
   per figure trial would otherwise send all its domains through that
   mutex at the start of each trial. *)
let create ?(nthreads = 0) () =
  {
    shards = Atomic.make (Array.init nthreads (fun _ -> fresh_shard ()));
    grow_mutex = Mutex.create ();
  }

let shard_count t = Array.length (Atomic.get t.shards)

let rec shard t thread =
  let shards = Atomic.get t.shards in
  if thread < Array.length shards then shards.(thread)
  else begin
    Mutex.lock t.grow_mutex;
    let shards = Atomic.get t.shards in
    let n = Array.length shards in
    if thread >= n then
      Atomic.set t.shards
        (Array.init (thread + 1) (fun i ->
             if i < n then shards.(i) else fresh_shard ()));
    Mutex.unlock t.grow_mutex;
    shard t thread
  end

let incr_commit t ~thread =
  let sh = shard t thread in
  sh.commits <- sh.commits + 1

let incr_abort t ~thread cause =
  let sh = shard t thread in
  let i = cause_index cause in
  sh.aborts.(i) <- sh.aborts.(i) + 1

let record_ns t ~thread span ns =
  let ns = max 0 ns in
  let sh = shard t thread in
  let i = Span.index span in
  sh.span_count.(i) <- sh.span_count.(i) + 1;
  sh.span_total_ns.(i) <- sh.span_total_ns.(i) + ns;
  let b = bucket_index ns in
  sh.span_buckets.(i).(b) <- sh.span_buckets.(i).(b) + 1

(* Timer protocol: [start] returns a monotonic nanosecond anchor
   (a local [clock_gettime(CLOCK_MONOTONIC)] stub returning a tagged
   int — no boxing, [@@noalloc]; ns resolution where gettimeofday only
   gives us), or 0 when timers are disabled; [stop] is a no-op on a 0
   anchor, so a timer disabled between start and stop never records a
   bogus sample. *)
external now_ns : unit -> int = "tm_obs_now_ns" [@@noalloc]
let start () = if Atomic.get timers_on then now_ns () else 0

let stop t ~thread span t0 =
  if t0 > 0 then record_ns t ~thread span (now_ns () - t0)

(* The TMs' span sites time one event in [sample_period] per thread and
   span kind: two clock reads cost about as much as a short commit, so
   timing every event would make the telemetry a large share of what it
   measures.  A histogram's count is then the number of samples, and
   its mean and buckets estimate the distribution over all events. *)
let sample_period = 64

(* [start] for the [sample_period]-th event of [span] on [thread],
   beginning with the first; 0 (which [stop] ignores) otherwise. *)
let start_sampled t ~thread span =
  let cd = (shard t thread).span_countdown in
  let i = Span.index span in
  let n = cd.(i) in
  if n = 0 then begin
    cd.(i) <- sample_period - 1;
    start ()
  end
  else begin
    cd.(i) <- n - 1;
    0
  end

(* ---------------------------- snapshots ---------------------------- *)

type hist = { h_count : int; h_total_ns : int; h_buckets : int array }

type snapshot = {
  s_commits : int;
  s_aborts : (abort_cause * int) list;
  s_spans : (Span.t * hist) list;
}

let zero () =
  {
    s_commits = 0;
    s_aborts = List.map (fun c -> (c, 0)) abort_causes;
    s_spans =
      List.map
        (fun sp ->
          (sp, { h_count = 0; h_total_ns = 0; h_buckets = Array.make buckets 0 }))
        Span.all;
  }

let aborts_total s = List.fold_left (fun acc (_, n) -> acc + n) 0 s.s_aborts
let abort_count s cause = try List.assoc cause s.s_aborts with Not_found -> 0
let span_hist s sp = try Some (List.assoc sp s.s_spans) with Not_found -> None

let merge a b =
  {
    s_commits = a.s_commits + b.s_commits;
    s_aborts =
      List.map (fun c -> (c, abort_count a c + abort_count b c)) abort_causes;
    s_spans =
      List.map
        (fun sp ->
          let get s =
            match span_hist s sp with
            | Some h -> h
            | None ->
                { h_count = 0; h_total_ns = 0; h_buckets = Array.make buckets 0 }
          in
          let ha = get a and hb = get b in
          ( sp,
            {
              h_count = ha.h_count + hb.h_count;
              h_total_ns = ha.h_total_ns + hb.h_total_ns;
              h_buckets =
                Array.init buckets (fun i -> ha.h_buckets.(i) + hb.h_buckets.(i));
            } ))
        Span.all;
  }

let snapshot t =
  let shards = Atomic.get t.shards in
  Array.fold_left
    (fun acc sh ->
      merge acc
        {
          s_commits = sh.commits;
          s_aborts =
            List.map (fun c -> (c, sh.aborts.(cause_index c))) abort_causes;
          s_spans =
            List.map
              (fun sp ->
                let i = Span.index sp in
                ( sp,
                  {
                    h_count = sh.span_count.(i);
                    h_total_ns = sh.span_total_ns.(i);
                    h_buckets = Array.copy sh.span_buckets.(i);
                  } ))
              Span.all;
        })
    (zero ()) shards

(* ------------------------------ output ----------------------------- *)

let mean_ns h =
  if h.h_count = 0 then 0.
  else float_of_int h.h_total_ns /. float_of_int h.h_count

(* trailing zero buckets carry no information; trim for output *)
let trimmed_buckets h =
  let last = ref 0 in
  Array.iteri (fun i n -> if n > 0 then last := i + 1) h.h_buckets;
  Array.to_list (Array.sub h.h_buckets 0 !last)

let hist_json h =
  Json.Obj
    [
      ("count", Json.Int h.h_count);
      ("total_ns", Json.Int h.h_total_ns);
      ("mean_ns", Json.Float (mean_ns h));
      ("log2_buckets", Json.Arr (List.map (fun n -> Json.Int n) (trimmed_buckets h)));
    ]

let snapshot_json s =
  let attempts = s.s_commits + aborts_total s in
  Json.Obj
    [
      ("commits", Json.Int s.s_commits);
      ("aborts", Json.Int (aborts_total s));
      ( "abort_rate",
        Json.Float
          (if attempts = 0 then 0.
           else float_of_int (aborts_total s) /. float_of_int attempts) );
      ( "aborts_by_cause",
        Json.Obj
          (List.map (fun (c, n) -> (abort_cause_name c, Json.Int n)) s.s_aborts)
      );
      ( "spans",
        Json.Obj
          (List.map (fun (sp, h) -> (Span.name sp, hist_json h)) s.s_spans) );
    ]

let pp_duration ppf ns =
  if ns < 1e3 then Format.fprintf ppf "%.0fns" ns
  else if ns < 1e6 then Format.fprintf ppf "%.1fus" (ns /. 1e3)
  else if ns < 1e9 then Format.fprintf ppf "%.1fms" (ns /. 1e6)
  else Format.fprintf ppf "%.2fs" (ns /. 1e9)

let pp_snapshot ppf s =
  let total = aborts_total s in
  let attempts = s.s_commits + total in
  Format.fprintf ppf "commits %d, aborts %d (abort rate %.1f%%)@," s.s_commits
    total
    (if attempts = 0 then 0.
     else 100. *. float_of_int total /. float_of_int attempts);
  let named = List.filter (fun (_, n) -> n > 0) s.s_aborts in
  if named <> [] then begin
    Format.fprintf ppf "aborts by cause:";
    List.iter
      (fun (c, n) -> Format.fprintf ppf " %s %d" (abort_cause_name c) n)
      named;
    Format.fprintf ppf "@,"
  end;
  List.iter
    (fun (sp, h) ->
      if h.h_count > 0 then
        Format.fprintf ppf "%-18s n=%-7d total=%a mean=%a@," (Span.name sp)
          h.h_count pp_duration
          (float_of_int h.h_total_ns)
          pp_duration (mean_ns h))
    s.s_spans
