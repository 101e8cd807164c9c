(* The TM stack's benchmark: per-TM transaction throughput and latency
   on two kernel workloads, checker throughput on recorded histories,
   and figure-trial throughput, each driven from outside through the
   libraries' public functions.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--tiny] [--spans FILE]
     bench.exe --check-wrapper

   With [--trace 0] every TM is used unwrapped and the telemetry stays
   at its shipped defaults: these are the end-to-end numbers.  With
   [--trace 1] the same workloads run through {!Traced}, a timing
   wrapper over [Tm_intf.S], with spans around every layer call; those
   runs give the per-layer numbers.  The last stdout line is one JSON
   object (correct / attempted / failed / metrics); [perfbench/run.py]
   builds this program, runs it and adds the process's peak RSS. *)

open Tm_model
open Tm_runtime
open Tm_lang
module Obs = Tm_obs.Obs

let process_start_ns = Obs.now_ns ()
let now_ns = Obs.now_ns

(* Two closed-loop client domains on every workload (the host the
   benchmark was written on has two cores); a run on fewer cores is
   flagged [oversubscribed] in the metadata line. *)
let clients = 2

(* [Atomic_block.run ~max_retries] budget: a transaction that aborts
   this many times in a row counts as a failed operation. *)
let max_retries = 100_000

let tm_names = [| "tl2"; "norec"; "tlrw"; "lock" |]
let ntm = Array.length tm_names
let entries = Array.map Tm_registry.find_exn tm_names

(* ------------------------------------------------------------------ *)
(* Small statistics helpers                                           *)

module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 256 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
end

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest of p99 / p90 / p50, up to [cap], that has at least ten
   samples beyond it; p50 when there are too few samples for any tail. *)
let tail_quantile ~cap n =
  let beyond p = p <= cap && float n *. (1. -. p) >= 10. in
  if beyond 0.99 then 0.99 else if beyond 0.9 then 0.9 else 0.5

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int
let secs_of_ns ns = fi ns /. 1e9

(* Latency histogram: exact below 256 ns, then 128 linear sub-buckets
   per power of two (under 0.8% relative width).  Recording allocates
   nothing, so the timed loop leaves the GC alone; a percentile is the
   nearest-rank sample, interpolated linearly inside its bucket. *)
module Hist = struct
  let sub = 128
  let nbuckets = 256 + (48 * sub)

  type t = { counts : int array; mutable n : int; mutable sum : int }

  let create () = { counts = Array.make nbuckets 0; n = 0; sum = 0 }

  let index v =
    if v < 256 then max v 0
    else begin
      let e = ref 0 and m = ref v in
      while !m >= 256 do
        m := !m lsr 1;
        incr e
      done;
      min (nbuckets - 1) (256 + ((!e - 1) * sub) + (!m - 128))
    end

  let lower i =
    if i < 256 then i else (128 + ((i - 256) mod sub)) lsl (((i - 256) / sub) + 1)

  let width i = if i < 256 then 1 else 1 lsl (((i - 256) / sub) + 1)

  let add h v =
    let i = index v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.n <- h.n + 1;
    h.sum <- h.sum + v

  let merge_into ~dst h =
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) h.counts;
    dst.n <- dst.n + h.n;
    dst.sum <- dst.sum + h.sum

  let percentile h p =
    if h.n = 0 then 0.
    else
      let rank = max 1 (int_of_float (ceil (p *. fi h.n))) in
      let rec go i acc =
        let c = h.counts.(i) in
        if acc + c >= rank then
          fi (lower i) +. (fi (width i) *. (fi (rank - acc) -. 0.5) /. fi c)
        else go (i + 1) (acc + c)
      in
      go 0 0
end

(* ------------------------------------------------------------------ *)
(* Tracing: per-domain counters and sampled spans                     *)

(* Counters kept per TM by the wrapper, laid out [tm * ncounters + k].
   Each call counter [k] is followed by its total duration in ns. *)
let c_begin = 0
let c_read = 2
let c_write = 4
let c_commit = 6
let c_fence = 8
let c_abort_read = 10
let c_abort_write = 11
let c_abort_commit = 12
let c_abort_explicit = 13
let c_wasted_ns = 14
let c_alloc_words = 15
let ncounters = 16

(* Span names.  A span is [name; op; id; parent; start; stop; domain]. *)
let span_names =
  [|
    "op"; "atomic_block"; "tm.begin"; "tm.read"; "tm.write"; "tm.commit";
    "tm.fence"; "generate"; "recorder.history"; "history.well_formed";
    "relations.of_history"; "race.is_drf"; "online_race.is_drf";
    "checker.canonical"; "monitor.check"; "runner.exec"; "runner.post";
    "runner.exec_thread";
    "explore.run"; "explore.is_drf";
  |]

let s_op = 0
let s_atomic_block = 1
let s_begin = 2
let s_read = 3
let s_write = 4
let s_commit = 5
let s_fence = 6
let s_generate = 7
let s_recorder = 8
let s_well_formed = 9
let s_relations = 10
let s_race = 11
let s_online = 12
let s_canonical = 13
let s_monitor = 14
let s_exec = 15
let s_post = 16
let s_explore_run = 17
let s_explore_drf = 18
let s_exec_thread = 19
let span_fields = 7

(* Spans stop being sampled past this many (ints, 7 per span). *)
let span_cap = 7 * 200_000

type dom = {
  cnt : int array;
  mutable txn_t0 : int;
  mutable txn_w0 : float;
  spans : Vec.t;
  did : int;
}

type ctx = { mutable op : int; mutable parent : int }

let totals = Array.make (ntm * ncounters) 0
let all_spans = ref []
let span_ints = Atomic.make 0
let merge_mutex = Mutex.create ()
let next_id = Atomic.make 1

let flush d =
  Mutex.lock merge_mutex;
  Array.iteri (fun i n -> totals.(i) <- totals.(i) + n) d.cnt;
  Array.fill d.cnt 0 (Array.length d.cnt) 0;
  if d.spans.Vec.n > 0 then all_spans := Vec.to_array d.spans :: !all_spans;
  d.spans.Vec.n <- 0;
  Mutex.unlock merge_mutex

(* Each domain's state is merged into [totals]/[all_spans] when the
   domain exits (the main domain flushes explicitly), so domains that
   the trial runner and the history generator spawn per operation
   leave nothing behind. *)
let dom_key =
  Domain.DLS.new_key (fun () ->
      let d =
        {
          cnt = Array.make (ntm * ncounters) 0;
          txn_t0 = 0;
          txn_w0 = 0.;
          spans = Vec.create ();
          did = (Domain.self () :> int);
        }
      in
      Domain.at_exit (fun () -> flush d);
      d)

(* The sampled operation and the open span are inherited by domains
   spawned inside an operation, so a trial's thread domains and the
   generator's domains attach their spans to the operation's tree. *)
let ctx_key =
  Domain.DLS.new_key
    ~split_from_parent:(fun c -> { op = c.op; parent = c.parent })
    (fun () -> { op = 0; parent = 0 })

let emit name op id parent t0 t1 =
  let d = Domain.DLS.get dom_key in
  let v = d.spans in
  Vec.push v name;
  Vec.push v op;
  Vec.push v id;
  Vec.push v parent;
  Vec.push v t0;
  Vec.push v t1;
  Vec.push v d.did;
  ignore (Atomic.fetch_and_add span_ints span_fields)

(* A span with no children, timed by the caller. *)
let leaf name t0 t1 =
  let c = Domain.DLS.get ctx_key in
  if c.op <> 0 then emit name c.op (Atomic.fetch_and_add next_id 1) c.parent t0 t1

let with_span name f =
  let c = Domain.DLS.get ctx_key in
  if c.op = 0 then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 and parent = c.parent in
    c.parent <- id;
    let t0 = now_ns () in
    let finish () =
      emit name c.op id parent t0 (now_ns ());
      c.parent <- parent
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Time [f] into [acc] (ns) and, when the operation is sampled, a span. *)
let timed acc name f =
  let t0 = now_ns () in
  let v = with_span name f in
  acc := !acc + (now_ns () - t0);
  v

(* Run one client operation as the root span of a fresh operation id
   when [sampled] and the span budget is not exhausted. *)
let with_op sampled f =
  if sampled && Atomic.get span_ints < span_cap then begin
    let c = Domain.DLS.get ctx_key in
    c.op <- Atomic.fetch_and_add next_id 1;
    c.parent <- 0;
    match with_span s_op f with
    | v ->
        c.op <- 0;
        v
    | exception e ->
        c.op <- 0;
        raise e
  end
  else f ()

(* The wrapper functor: every [Tm_intf.S] call is timed and counted per
   domain, aborts are attributed to the call that raised them, the
   time spent in aborted attempts is accumulated, and sampled
   operations get one leaf span per call.  It changes no TM state. *)
module Traced (I : sig
  val idx : int
end)
(T : Tm_intf.S) : Tm_intf.S with type t = T.t = struct
  type t = T.t
  type txn = T.txn

  let name = T.name
  let create = T.create
  let base = I.idx * ncounters

  let bump d k ns =
    d.cnt.(base + k) <- d.cnt.(base + k) + 1;
    d.cnt.(base + k + 1) <- d.cnt.(base + k + 1) + ns

  let aborted d k t1 =
    d.cnt.(base + k) <- d.cnt.(base + k) + 1;
    d.cnt.(base + c_wasted_ns) <- d.cnt.(base + c_wasted_ns) + (t1 - d.txn_t0)

  let txn_begin t ~thread =
    let d = Domain.DLS.get dom_key in
    d.txn_w0 <- Gc.minor_words ();
    let t0 = now_ns () in
    let x = T.txn_begin t ~thread in
    let t1 = now_ns () in
    d.txn_t0 <- t0;
    bump d c_begin (t1 - t0);
    leaf s_begin t0 t1;
    x

  (* [call k ka span f]: time [f ()], counting it under [k] or, when it
     raises [Abort], under the abort counter [ka]. *)
  let call k ka span f =
    let t0 = now_ns () in
    match f () with
    | v ->
        let t1 = now_ns () in
        bump (Domain.DLS.get dom_key) k (t1 - t0);
        leaf span t0 t1;
        v
    | exception Tm_intf.Abort ->
        let t1 = now_ns () in
        aborted (Domain.DLS.get dom_key) ka t1;
        leaf span t0 t1;
        raise Tm_intf.Abort

  let read t x r = call c_read c_abort_read s_read (fun () -> T.read t x r)

  let write t x r v =
    call c_write c_abort_write s_write (fun () -> T.write t x r v)

  let commit t x =
    call c_commit c_abort_commit s_commit (fun () -> T.commit t x);
    let d = Domain.DLS.get dom_key in
    d.cnt.(base + c_alloc_words) <-
      d.cnt.(base + c_alloc_words)
      + int_of_float (Gc.minor_words () -. d.txn_w0)

  let abort t x =
    T.abort t x;
    aborted (Domain.DLS.get dom_key) c_abort_explicit (now_ns ())

  let read_nt = T.read_nt
  let write_nt = T.write_nt

  let fence t ~thread =
    let t0 = now_ns () in
    T.fence t ~thread;
    let t1 = now_ns () in
    bump (Domain.DLS.get dom_key) c_fence (t1 - t0);
    leaf s_fence t0 t1
end

(* ------------------------------------------------------------------ *)
(* Run configuration and results                                      *)

type size = {
  list_len : int;  (** sorted-list nodes *)
  accounts : int;  (** bank accounts (the hot table) *)
  swap_width : int;
  swap_blocks : int;
  cycles : int;  (** generator operations per domain per history *)
  kernel_rounds : int;
  figure_rounds : int;
  record_rounds : int;
  warmup_ops : int;  (** per client, before the first timed op *)
}

let full =
  {
    list_len = 512;
    accounts = 8;
    swap_width = 16;
    swap_blocks = 8;
    cycles = 20;
    kernel_rounds = 32;
    figure_rounds = 12;
    record_rounds = 12;
    warmup_ops = 100;
  }

let tiny =
  {
    list_len = 32;
    accounts = 8;
    swap_width = 4;
    swap_blocks = 4;
    cycles = 6;
    kernel_rounds = 1;
    figure_rounds = 1;
    record_rounds = 1;
    warmup_ops = 10;
  }

type cfg = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : size;
  spans_out : string option;
}

(* One timed slice: one TM, one set of client domains. *)
type slice = {
  tm : int;
  work : int;  (** units of work: txns, certified actions or trials *)
  secs : float;
  rates : float list;  (** work per second of each history (record-check) *)
  setup : float;  (** seconds from slice start to the first timed op *)
  lat : Hist.t;  (** per-op latency, ns *)
}

(* Failure counts are bumped from client domains too. *)
let failures = Atomic.make 0
let budget_exhausted = Atomic.make 0
let attempted = ref 0
let problems = ref []
let op_words = ref 0.
let op_count = ref 0
let count_mutex = Mutex.create ()

(* Record a problem; [fail] also counts it as one failed check. *)
let note fmt =
  Printf.ksprintf
    (fun s ->
      Mutex.protect count_mutex (fun () ->
          if List.length !problems < 20 then problems := s :: !problems))
    fmt

let fail fmt =
  Atomic.incr failures;
  note fmt

let slices_started = ref 0

(* Where a slice's set-up starts: process start for the first slice,
   the slice's own start afterwards. *)
let slice_start () =
  incr slices_started;
  if !slices_started = 1 then process_start_ns else now_ns ()

(* Closed-loop clients: each domain warms up, waits at a barrier, then
   issues operations until the deadline, timing each with [now_ns].
   [op] returns [true] when the operation succeeded. *)
let run_clients ~t0 ~seconds ~warmup ~sampled ~seed ~tm
    (op : thread:int -> i:int -> Random.State.t -> bool) =
  let ready = Atomic.make 0 and go = Atomic.make 0 in
  let client thread () =
    let rng = Random.State.make [| seed; thread; tm; !slices_started |] in
    let bad = ref 0 in
    for i = 0 to warmup - 1 do
      if not (op ~thread ~i rng) then incr bad
    done;
    Atomic.incr ready;
    while Atomic.get go = 0 do
      Domain.cpu_relax ()
    done;
    let deadline = Atomic.get go in
    let lat = Hist.create () in
    let words = ref 0. in
    let i = ref warmup and stop = ref (now_ns ()) in
    while !stop < deadline do
      let w0 = if sampled then Gc.minor_words () else 0. in
      let s = now_ns () in
      let ok = with_op (sampled && !i land 63 = 0) (fun () -> op ~thread ~i:!i rng) in
      let e = now_ns () in
      if sampled then words := !words +. (Gc.minor_words () -. w0);
      if not ok then incr bad;
      Hist.add lat (e - s);
      stop := e;
      incr i
    done;
    (lat, !bad, !words, !stop, warmup)
  in
  let ds = Array.init clients (fun thread -> Domain.spawn (client thread)) in
  while Atomic.get ready < clients do
    Unix.sleepf 0.0002
  done;
  let start = now_ns () in
  Atomic.set go (start + int_of_float (seconds *. 1e9));
  let results = Array.map Domain.join ds in
  let lat = Hist.create () in
  Array.iter (fun (l, _, _, _, _) -> Hist.merge_into ~dst:lat l) results;
  let stop = Array.fold_left (fun m (_, _, _, s, _) -> max m s) start results in
  let ops = lat.Hist.n in
  Array.iter
    (fun (_, bad, words, _, warm) ->
      ignore (Atomic.fetch_and_add failures bad);
      attempted := !attempted + warm;
      op_words := !op_words +. words)
    results;
  attempted := !attempted + ops;
  op_count := !op_count + ops;
  {
    tm;
    work = ops;
    secs = secs_of_ns (stop - start);
    rates = [];
    setup = secs_of_ns (start - t0);
    lat;
  }

(* ------------------------------------------------------------------ *)
(* Kernel workloads                                                   *)

(* A run of [op] under [Atomic_block.run]'s budget; [None] when the
   budget was exhausted. *)
let budgeted run =
  match run () with
  | v -> Some v
  | exception Failure _ ->
      Atomic.incr budget_exhausted;
      None

(* A kernel workload on one set of TM instances: the client operation,
   the invariant check run once the clients have joined, and a dump of
   the final registers (compared by the wrapper-equivalence check). *)
type prepared = {
  op : thread:int -> i:int -> Random.State.t -> bool;
  check : unit -> unit;
  dump : unit -> int list;
}

module Kernel_slices (T : Tm_intf.S) = struct
  module AB = Atomic_block.Make (T)
  module K = Tm_workloads.Kernels.Make (T)

  let atomic tm ~thread body =
    budgeted (fun () ->
        with_span s_atomic_block (fun () ->
            fst (AB.run ~max_retries tm ~thread body)))

  let fence_after policy tm ~thread ~read_only ~requested =
    if Fence_policy.fence_after_txn policy ~read_only ~requested then
      T.fence tm ~thread

  let dump inst nregs () = List.init nregs (T.read_nt inst ~thread:0)

  (* read-mostly: sorted-list lookups (80%, read-only) and value
     updates (20%), with a selective-fence request every 64th update.
     The kernel's layout: register 0 is the head, node n keeps its key
     at 3n-2, value at 3n-1 and next pointer at 3n. *)
  let read_mostly ~make ~policy ~size =
    let len = size.list_len in
    let k = K.sorted_list ~size:len in
    let inst = make ~nregs:k.K.nregs in
    k.K.prepare inst;
    let updates = Atomic.make 0 in
    let op ~thread ~i rng =
      let target = 2 * (1 + Random.State.int rng len) in
      let find txn =
        let rec go node =
          if node = 0 then 0
          else if T.read inst txn ((3 * node) - 2) >= target then node
          else go (T.read inst txn (3 * node))
        in
        go (T.read inst txn 0)
      in
      if Random.State.int rng 10 < 8 then
        match
          atomic inst ~thread (fun txn ->
              let node = find txn in
              if node = 0 then -1 else T.read inst txn ((3 * node) - 1))
        with
        | None -> false
        | Some v ->
            fence_after policy inst ~thread ~read_only:true ~requested:false;
            v >= 0
      else
        match
          atomic inst ~thread (fun txn ->
              let node = find txn in
              if node <> 0 then begin
                let r = (3 * node) - 1 in
                T.write inst txn r (T.read inst txn r + 1)
              end)
        with
        | None -> false
        | Some () ->
            Atomic.incr updates;
            fence_after policy inst ~thread ~read_only:false
              ~requested:(i land 63 = 63);
            true
    in
    (* the list is still sorted, linked and complete, and its values
       sum to the committed updates *)
    let check () =
      let rd r = T.read_nt inst ~thread:0 r in
      let rec walk node prev n sum =
        if node = 0 then (n, sum)
        else if node > len || rd ((3 * node) - 2) <= prev then (-1, sum)
        else
          walk (rd (3 * node)) (rd ((3 * node) - 2)) (n + 1)
            (sum + rd ((3 * node) - 1))
      in
      let n, sum = walk (rd 0) min_int 0 0 in
      if n <> len then fail "%s: sorted list broken (%d of %d nodes)" T.name n len;
      if sum <> Atomic.get updates then
        fail "%s: list values sum to %d, %d updates committed" T.name sum
          (Atomic.get updates)
    in
    { op; check; dump = dump inst k.K.nregs }

  (* update-fenced: transfers over a small hot account table (a
     read-only audit every 16th op, which must see the conserved
     total) and swaps of wide register blocks, three to one. *)
  let update_fenced ~make ~policy ~size =
    let accounts = size.accounts and width = size.swap_width in
    let blocks = size.swap_blocks in
    let kb = K.bank ~accounts and ks = K.swap ~width ~blocks in
    let bank = make ~nregs:kb.K.nregs and swap = make ~nregs:ks.K.nregs in
    kb.K.prepare bank;
    ks.K.prepare swap;
    let two rng n =
      let a = Random.State.int rng n in
      (a, (a + 1 + Random.State.int rng (n - 1)) mod n)
    in
    let op ~thread ~i rng =
      if Random.State.int rng 4 < 3 then
        if i land 15 = 15 then
          match
            atomic bank ~thread (fun txn ->
                let total = ref 0 in
                for a = 0 to accounts - 1 do
                  total := !total + T.read bank txn a
                done;
                !total)
          with
          | None -> false
          | Some total ->
              fence_after policy bank ~thread ~read_only:true ~requested:false;
              if total <> 100 * accounts then
                note "%s: audit saw total %d" T.name total;
              total = 100 * accounts
        else
          let a, b = two rng accounts in
          match
            atomic bank ~thread (fun txn ->
                let va = T.read bank txn a and vb = T.read bank txn b in
                T.write bank txn a (va - 1);
                T.write bank txn b (vb + 1))
          with
          | None -> false
          | Some () ->
              fence_after policy bank ~thread ~read_only:false
                ~requested:(i land 63 = 63);
              true
      else
        let a, b = two rng blocks in
        match
          atomic swap ~thread (fun txn ->
              for k = 0 to width - 1 do
                let ra = (a * width) + k and rb = (b * width) + k in
                let va = T.read swap txn ra and vb = T.read swap txn rb in
                T.write swap txn ra vb;
                T.write swap txn rb va
              done)
        with
        | None -> false
        | Some () ->
            fence_after policy swap ~thread ~read_only:false
              ~requested:(i land 63 = 63);
            true
    in
    (* the bank total is conserved and every swap block still holds
       some block's original contents *)
    let check () =
      let total = ref 0 in
      for a = 0 to accounts - 1 do
        total := !total + T.read_nt bank ~thread:0 a
      done;
      if !total <> 100 * accounts then
        fail "%s: bank total %d, expected %d" T.name !total (100 * accounts);
      let seen = Array.make blocks false in
      for b = 0 to blocks - 1 do
        let first = T.read_nt swap ~thread:0 (b * width) in
        let src = first / width in
        let whole = ref (first mod width = 0 && src >= 0 && src < blocks) in
        for k = 1 to width - 1 do
          if T.read_nt swap ~thread:0 ((b * width) + k) <> first + k then
            whole := false
        done;
        if !whole && not seen.(src) then seen.(src) <- true
        else fail "%s: swap block %d lost its contents" T.name b
      done
    in
    {
      op;
      check;
      dump = (fun () -> dump bank kb.K.nregs () @ dump swap ks.K.nregs ());
    }

  let prepare ~workload =
    if workload = "read-mostly" then read_mostly else update_fenced

  let slice ~workload ~make ~policy ~size ~seconds ~sampled ~seed ~tm =
    let t0 = slice_start () in
    let p = prepare ~workload ~make ~policy ~size in
    let s =
      run_clients ~t0 ~seconds ~warmup:size.warmup_ops ~sampled ~seed ~tm p.op
    in
    p.check ();
    s
end

(* ------------------------------------------------------------------ *)
(* record-check: privatize -> fence -> non-transactional access ->    *)
(* publish, recorded and certified                                    *)

let chk =
  [|
    ("history.well_formed", ref 0); ("relations.of_history", ref 0);
    ("race.is_drf", ref 0); ("online_race.is_drf", ref 0);
    ("checker.canonical", ref 0); ("monitor.check", ref 0);
  |]

let recorder_history_ns = ref 0
let histories = ref 0
let certified_actions = ref 0
let gen_with_ns = ref 0
let gen_without_ns = ref 0
let gen_actions = ref 0

(* Register map: 0 is privatized, 1..5 always shared, 6 the flag. *)
let priv_reg = 0
let flag_reg = 6

module Generator (T : Tm_intf.S) = struct
  module AB = Atomic_block.Make (T)

  (* Two domains; domain 0 privatizes every fourth operation.  [fresh]
     gives process-unique values so recorded writes are unique. *)
  let run inst ~cycles ~seed ~fresh =
    let txn ~thread body =
      match AB.run ~max_retries inst ~thread body with
      | (), _ -> true
      | exception Failure _ ->
          Atomic.incr budget_exhausted;
          false
    in
    let ready = Atomic.make 0 in
    let worker thread () =
      let rng = Random.State.make [| seed; thread |] in
      let bad = ref 0 in
      (* start together, so every history interleaves both domains *)
      Atomic.incr ready;
      while Atomic.get ready < clients do
        Domain.cpu_relax ()
      done;
      for i = 0 to cycles - 1 do
        let ok =
          if thread = 0 && i land 3 = 3 then begin
            txn ~thread (fun t -> T.write inst t flag_reg (fresh ()))
            && begin
                 T.fence inst ~thread;
                 ignore (T.read_nt inst ~thread priv_reg);
                 T.write_nt inst ~thread priv_reg (fresh ());
                 txn ~thread (fun t -> T.write inst t flag_reg (-fresh ()))
               end
          end
          else
            txn ~thread (fun t ->
                let f = T.read inst t flag_reg in
                let r = 1 + Random.State.int rng 5 in
                ignore (T.read inst t r);
                T.write inst t r (fresh ());
                if f <= 0 then
                  if Random.State.bool rng then ignore (T.read inst t priv_reg)
                  else T.write inst t priv_reg (fresh ()))
        in
        if not ok then incr bad
      done;
      !bad
    in
    let ds = Array.init clients (fun th -> Domain.spawn (worker th)) in
    Array.fold_left (fun n d -> n + Domain.join d) 0 ds
end

let canonical_rejects = ref 0

(* The canonical graph (and the monitor) order the writers of a register
   by their [committed] responses.  TL2 writes back and releases its
   locks before it logs [committed], so a committer descheduled in
   between is placed after a later writer of the same register and a
   strongly opaque history is rejected.  Such a history is certified
   again on the graph whose writers are ordered by their [txcommit]
   requests, with the witness verified as [Checker.check_canonical]
   verifies its own. *)
let certify_by_commit_request rels =
  let open Tm_opacity in
  let info = rels.Tm_relations.Relations.info in
  let h = info.History.history in
  let txcommit k =
    List.find_opt
      (fun i -> h.(i).Action.kind = Action.Request Action.Txcommit)
      info.History.txns.(k).History.t_actions
  in
  let write_stamp = function
    | Graph.Txn k as n -> (
        match txcommit k with
        | Some i -> i
        | None -> Graph.default_write_stamp rels n)
    | n -> Graph.default_write_stamp rels n
  in
  Consistency.check rels
  &&
  match Graph.build ~write_stamp rels with
  | Error _ -> false
  | Ok g -> (
      Graph.is_acyclic g
      &&
      match Graph.witness g with
      | Some s -> Tm_atomic.Atomic_tm.mem s && Spo_relation.in_relation h s
      | None -> false)

(* Every TM's history must be well formed and DRF, with [Race] and
   [Online_race] agreeing.  A rejection by the canonical graph or the
   monitor is counted ([checker.canonical_rejects]) and re-certified
   with [certify_by_commit_request]; [tl2] fails when that fails too.
   For the other TMs, whose histories the paper's TL2 proof does not
   cover, it is only noted. *)
let certify ~tl2 name h =
  let get i = snd chk.(i) in
  let wf = timed (get 0) s_well_formed (fun () -> History.is_well_formed h) in
  let rels =
    timed (get 1) s_relations (fun () -> Tm_relations.Relations.of_history h)
  in
  let drf = timed (get 2) s_race (fun () -> Tm_relations.Race.is_drf rels) in
  let online =
    timed (get 3) s_online (fun () -> Tm_relations.Online_race.is_drf h)
  in
  let opaque =
    timed (get 4) s_canonical (fun () ->
        Tm_opacity.Checker.(is_opaque (check_canonical h)))
  in
  let mon =
    timed (get 5) s_monitor (fun () -> Tm_opacity.Monitor.check h)
    = Tm_opacity.Monitor.Ok
  in
  incr histories;
  certified_actions := !certified_actions + Array.length h;
  if not wf then fail "%s: recorded history is not well formed" name;
  if drf <> online then fail "%s: Race says DRF=%b, Online_race %b" name drf online;
  if not drf then fail "%s: recorded history is not DRF" name;
  if not (opaque && mon) then begin
    incr canonical_rejects;
    let again =
      timed (get 4) s_canonical (fun () -> certify_by_commit_request rels)
    in
    if tl2 && not again then
      fail "%s: recorded history is not strongly opaque (canonical %b, \
            monitor %b, by txcommit order %b)" name opaque mon again
    else
      note "%s: canonical check %b, monitor %b, by txcommit order %b" name
        opaque mon again
  end

(* The shipped doomed-read history must be rejected by both the
   offline checker and the monitor. *)
let check_doomed () =
  incr attempted;
  match Text.of_file "histories/doomed_read.txt" with
  | Error e -> fail "histories/doomed_read.txt: %s" e
  | Ok h ->
      if Tm_opacity.Checker.strongly_opaque h then
        fail "doomed_read.txt accepted by Checker";
      if Tm_opacity.Monitor.check h = Tm_opacity.Monitor.Ok then
        fail "doomed_read.txt accepted by Monitor"

module Record_slices (T : Tm_intf.S) = struct
  module G = Generator (T)

  let history (module E : Tm_registry.TM with type T.t = T.t) ~cycles ~seed =
    let rec_ = Recorder.create () in
    let inst = E.make ~recorder:rec_ ~nregs:7 ~nthreads:clients () in
    let t0 = now_ns () in
    let bad =
      with_span s_generate (fun () ->
          G.run inst ~cycles ~seed ~fresh:(fun () -> Recorder.fresh_value rec_))
    in
    let t1 = now_ns () in
    let h = timed recorder_history_ns s_recorder (fun () -> Recorder.history rec_) in
    (h, bad, t1 - t0, inst)

  (* The same generator without a recorder, for the recorder's cost. *)
  let unrecorded (module E : Tm_registry.TM with type T.t = T.t) ~cycles ~seed =
    let inst = E.make ~nregs:7 ~nthreads:clients () in
    let next = Atomic.make 1 in
    let t0 = now_ns () in
    ignore (G.run inst ~cycles ~seed ~fresh:(fun () -> Atomic.fetch_and_add next 1));
    now_ns () - t0

  let slice e ~size ~seconds ~sampled ~seed ~tm ~snap =
    let t0 = slice_start () in
    if !histories = 0 then check_doomed ();
    let one ~cycles ~seed =
      let h, bad, gen_ns, inst = history e ~cycles ~seed in
      snap inst;
      if sampled then begin
        gen_with_ns := !gen_with_ns + gen_ns;
        gen_actions := !gen_actions + Array.length h
      end;
      if bad > 0 then fail "%s: %d generator txns over budget" T.name bad;
      certify ~tl2:(tm = 0) T.name h;
      Array.length h
    in
    (* warm-up: one short history *)
    incr attempted;
    ignore (one ~cycles:4 ~seed:(seed + 7919));
    let start = now_ns () in
    let deadline = start + int_of_float (seconds *. 1e9) in
    let lat = Hist.create () and work = ref 0 and i = ref 0 and rates = ref [] in
    let stop = ref start in
    while !stop < deadline || !i = 0 do
      let hseed = seed + !histories in
      let w0 = Gc.minor_words () and s = now_ns () in
      let n = with_op sampled (fun () -> one ~cycles:size.cycles ~seed:hseed) in
      stop := now_ns ();
      op_words := !op_words +. (Gc.minor_words () -. w0);
      Hist.add lat (!stop - s);
      rates := ratio (fi n) (secs_of_ns (!stop - s)) :: !rates;
      if sampled then
        gen_without_ns :=
          !gen_without_ns + unrecorded e ~cycles:size.cycles ~seed:hseed;
      work := !work + n;
      incr attempted;
      incr op_count;
      incr i
    done;
    {
      tm;
      work = !work;
      secs = secs_of_ns (!stop - start);
      rates = !rates;
      setup = secs_of_ns (start - t0);
      lat;
    }
end

(* ------------------------------------------------------------------ *)
(* figure-trials                                                      *)

let explore_run_ns = ref 0
let explore_drf_ns = ref 0
let explored = ref 0
let exec_ns = ref 0
let exec_calls = ref 0

let explore_figures () =
  List.iter
    (fun (f : Figures.figure) ->
      incr attempted;
      incr explored;
      ignore
        (timed explore_run_ns s_explore_run (fun () ->
             Explore.run ~fuel:f.f_fuel f.f_program));
      let drf =
        timed explore_drf_ns s_explore_drf (fun () ->
            Explore.is_drf ~fuel:f.f_fuel f.f_program)
      in
      if drf <> f.f_drf then
        fail "Explore.is_drf %s = %b, expected %b" f.f_name drf f.f_drf)
    Figures.all

(* The DRF figure programs whose postconditions must hold on a
   privatization-safe TM or fenced TL2. *)
let trial_figures = [| Figures.fig1a ~fenced:true (); Figures.fig2; Figures.fig6 |]

(* One trial in flight: its fresh TM, which figure, the span context of
   the sampled op, and the per-thread results. *)
type 'tm job = {
  inst : 'tm;
  fig : int;
  op : int;
  parent : int;
  out : (Ast.env * bool) array;
  finished : int Atomic.t;
}

module Figure_slices (T : Tm_intf.S) = struct
  module R = Tm_workloads.Runner.Make (T)

  let run_thread programs j thread =
    let c = Domain.DLS.get ctx_key in
    c.op <- j.op;
    c.parent <- j.parent;
    j.out.(thread) <-
      with_span s_exec_thread (fun () ->
          R.exec_thread ~elide_ro_fences:false j.inst thread
            programs.(j.fig).(thread) 10_000);
    c.op <- 0;
    Atomic.incr j.finished

  (* a diverged run (fig6's reader spinning out its fuel) has
     incomplete environments, so only finished runs are judged *)
  let judge fig out regs =
    let f = trial_figures.(fig) in
    let ok = Array.exists snd out || f.f_post (Array.map fst out) regs in
    if not ok then fail "%s: %s violated its postcondition" T.name f.f_name;
    ok

  (* Trials run on two long-lived client domains, one per program
     thread: the leader (this domain) creates a fresh TM and publishes
     the trial, both run their thread with [Runner.exec_thread], and the
     leader checks the postcondition.  Spawning two domains per trial,
     as [Runner.exec] does, makes trial throughput follow the host's
     thread wake-up latency (it swung by 45% between runs of the same
     code), so [Runner.exec] itself is timed only in the traced run. *)
  let slice (module E : Tm_registry.TM with type T.t = T.t) ~policy ~seconds
      ~sampled ~tm ~snap =
    let t0 = slice_start () in
    (* the programs rewritten under the TM's fence policy, as
       [Runner.run_trials] does *)
    let programs =
      Array.map
        (fun (f : Figures.figure) -> Tm_workloads.Policy.apply policy f.f_program)
        trial_figures
    in
    let slot = Atomic.make None and stop = Atomic.make false in
    let follower () =
      let last = ref (-1) in
      while not (Atomic.get stop) do
        match Atomic.get slot with
        | Some (id, j) when id <> !last ->
            last := id;
            run_thread programs j 1
        | _ -> Domain.cpu_relax ()
      done
    in
    let d = Domain.spawn follower in
    let trial i =
      let fig = i mod Array.length trial_figures in
      let inst = E.make ~nregs:Figures.nregs ~nthreads:clients () in
      let c = Domain.DLS.get ctx_key in
      let j =
        {
          inst;
          fig;
          op = c.op;
          parent = c.parent;
          out = Array.make clients ([], false);
          finished = Atomic.make 0;
        }
      in
      Atomic.set slot (Some (i, j));
      run_thread programs j 0;
      c.op <- j.op;
      while Atomic.get j.finished < clients do
        Domain.cpu_relax ()
      done;
      let ok =
        with_span s_post (fun () ->
            judge j.fig j.out (R.read_registers inst Figures.nregs))
      in
      snap inst;
      ok
    in
    let warmup = 30 in
    for i = 0 to warmup - 1 do
      incr attempted;
      ignore (trial i)
    done;
    (* the traced run also times whole [Runner.exec] trials, each
       spawning its own domains *)
    if sampled then
      for i = 0 to 19 do
        let fig = i mod Array.length trial_figures in
        let inst = E.make ~nregs:Figures.nregs ~nthreads:clients () in
        let r =
          timed exec_ns s_exec (fun () -> R.exec ~policy inst programs.(fig))
        in
        incr exec_calls;
        ignore
          (judge fig
             (Array.combine r.Tm_workloads.Runner.r_envs r.r_diverged)
             (R.read_registers inst Figures.nregs))
      done;
    let start = now_ns () in
    let deadline = start + int_of_float (seconds *. 1e9) in
    let lat = Hist.create () and i = ref warmup and stop_t = ref start in
    while !stop_t < deadline do
      let w0 = Gc.minor_words () and s = now_ns () in
      ignore (with_op (sampled && !i land 15 = 0) (fun () -> trial !i));
      stop_t := now_ns ();
      op_words := !op_words +. (Gc.minor_words () -. w0);
      Hist.add lat (!stop_t - s);
      incr attempted;
      incr op_count;
      incr i
    done;
    Atomic.set stop true;
    Domain.join d;
    {
      tm;
      work = lat.Hist.n;
      secs = secs_of_ns (!stop_t - start);
      rates = [];
      setup = secs_of_ns (start - t0);
      lat;
    }
end

(* ------------------------------------------------------------------ *)
(* Driving a workload                                                 *)

let workloads = [ "read-mostly"; "update-fenced"; "record-check"; "figure-trials" ]
let kernel cfg = cfg.workload = "read-mostly" || cfg.workload = "update-fenced"

(* [tl2] runs under the workload's fence policy; the fence-free
   privatization-safe baselines need no fences. *)
let policy_for cfg tm =
  if tm <> 0 then Fence_policy.No_fences
  else if cfg.workload = "update-fenced" then Fence_policy.Conservative
  else Fence_policy.Selective

let snapshots = Array.init ntm (fun _ -> Obs.zero ())

(* One slice of workload [cfg] on TM [tm], wrapped by {!Traced} when
   [traced]. *)
let slice cfg ~traced ~seconds tm =
  let (module E : Tm_registry.TM) = entries.(tm).Tm_registry.tm in
  let snap inst =
    if traced then snapshots.(tm) <- Obs.merge snapshots.(tm) (E.snapshot inst)
  in
  let policy = policy_for cfg tm in
  let size = cfg.size and seed = cfg.seed + (1000 * tm) in
  let go (module T : Tm_intf.S with type t = E.T.t) =
    let e = (module E : Tm_registry.TM with type T.t = E.T.t) in
    match cfg.workload with
    | "record-check" ->
        let module S = Record_slices (T) in
        S.slice e ~size ~seconds ~sampled:traced ~seed ~tm ~snap
    | "figure-trials" ->
        let module S = Figure_slices (T) in
        S.slice e ~policy ~seconds ~sampled:traced ~tm ~snap
    | workload ->
        let module S = Kernel_slices (T) in
        let insts = ref [] in
        let make ~nregs =
          let inst = E.make ~nregs ~nthreads:clients () in
          insts := inst :: !insts;
          inst
        in
        let s =
          S.slice ~workload ~make ~policy ~size ~seconds ~sampled:traced ~seed
            ~tm
        in
        List.iter snap !insts;
        s
  in
  if traced then
    go
      (module Traced (struct
        let idx = tm
      end)
      (E.T))
  else go (module E.T)

let rounds cfg =
  match cfg.workload with
  | "read-mostly" | "update-fenced" -> cfg.size.kernel_rounds
  | "figure-trials" -> cfg.size.figure_rounds
  | _ -> cfg.size.record_rounds

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* A TM's numbers over all its slices pooled: total work over total
   time, and percentiles of the merged latency histogram.  Pooling keeps
   the numbers steady where a TM's slices are bimodal (tl2 and norec on
   read-mostly run at one of two rates from slice to slice).  Record-check
   reports the median per-history rate instead: with few long ops, one
   slow stretch of the host would dominate a mean. *)
type summary = { rate : float; p50 : float; p99 : float; tail : float; n : int }

let rate slices =
  let work = List.fold_left (fun a s -> a + s.work) 0 slices in
  ratio (fi work) (List.fold_left (fun a s -> a +. s.secs) 0. slices)

(* Figure-trial latency is bimodal: about 1% of trials meet a conflict
   and wait, so their p99 sits between the two modes and moved from 8 to
   22 us between runs of the same code; figure-trials reports p90. *)
let tail_cap cfg = if cfg.workload = "figure-trials" then 0.9 else 0.99

let summarize cfg slices tm =
  let mine = List.filter (fun s -> s.tm = tm) slices in
  let lat = Hist.create () in
  List.iter (fun s -> Hist.merge_into ~dst:lat s.lat) mine;
  let pct p = Hist.percentile lat p /. 1e3 in
  {
    rate =
      (match List.concat_map (fun s -> s.rates) mine with
      | [] -> rate mine
      | rates -> median rates);
    p50 = pct 0.5;
    p99 = pct 0.99;
    tail = pct (tail_quantile ~cap:(tail_cap cfg) lat.Hist.n);
    n = lat.Hist.n;
  }

let per_tm_end_to_end cfg slices =
  List.concat_map
    (fun tm ->
      let x = summarize cfg slices tm and name = tm_names.(tm) in
      [
        m (name ^ ".ops_per_s") "1/s" x.rate;
        m (name ^ ".op_p50_us") "us" x.p50;
        m (name ^ ".op_tail_us") "us" x.tail;
      ])
    (List.init ntm Fun.id)

(* Per-slice lines, then the same numbers under per-workload names
   (txn_per_s, check_actions_per_s, trials_per_s, failed_ratio). *)
let named_lines cfg slices =
  let line name unit_ v = Printf.printf "metric %s %.6g %s\n" name v unit_ in
  List.iter
    (fun s ->
      Printf.printf
        "slice %s %.3fs work %d rate %.6g/s p50 %.6gus p99 %.6gus setup %.6gs\n"
        tm_names.(s.tm) s.secs s.work (ratio (fi s.work) s.secs)
        (Hist.percentile s.lat 0.5 /. 1e3)
        (Hist.percentile s.lat 0.99 /. 1e3)
        s.setup)
    slices;
  if kernel cfg then
    Array.iteri
      (fun tm name ->
        let x = summarize cfg slices tm in
        line (name ^ ".txn_per_s") "txn/s" x.rate;
        line (name ^ ".txn_p50_us") "us" x.p50;
        line (name ^ ".txn_p99_us") "us" x.p99;
        Printf.printf "samples %s %d\n" name x.n)
      tm_names
  else if cfg.workload = "record-check" then begin
    let x = summarize cfg slices 0 in
    line "check_actions_per_s" "actions/s" x.rate;
    line "check_p50_ms" "ms" (x.p50 /. 1e3);
    Printf.printf "samples tl2 %d histories\n" x.n
  end
  else begin
    let n = List.fold_left (fun a s -> a + s.work) 0 slices in
    let t = List.fold_left (fun a s -> a +. s.secs) 0. slices in
    line "trials_per_s" "trials/s" (ratio (fi n) t)
  end;
  line "failed_ratio" "fraction"
    (ratio (fi (Atomic.get failures)) (fi (max 1 !attempted)))

let layer_metrics cfg ~traced_tl2 ~plain_tl2 ~timers_on ~timers_off ~trial_ms =
  let t k tm = fi totals.((tm * ncounters) + k) in
  let sum k = List.fold_left (fun a tm -> a +. t k tm) 0. (List.init ntm Fun.id) in
  let commits = sum c_commit in
  let per_tm =
    List.concat_map
      (fun tm ->
        let name = tm_names.(tm) ^ "." in
        let mean k = ratio (t (k + 1) tm) (t k tm) in
        let per_txn k = ratio (t k tm) (t c_commit tm) in
        let snap = snapshots.(tm) in
        [
          m (name ^ "begin_ns") "ns" (mean c_begin);
          m (name ^ "read_ns") "ns" (mean c_read);
          m (name ^ "write_ns") "ns" (mean c_write);
          m (name ^ "commit_ns") "ns" (mean c_commit);
          m (name ^ "fence_ns") "ns" (mean c_fence);
          m (name ^ "reads_per_txn") "1/txn" (per_txn c_read);
          m (name ^ "writes_per_txn") "1/txn" (per_txn c_write);
          m (name ^ "aborts_at_read") "count" (t c_abort_read tm);
          m (name ^ "aborts_at_write") "count" (t c_abort_write tm);
          m (name ^ "aborts_at_commit") "count" (t c_abort_commit tm);
          m (name ^ "alloc_words_per_txn") "words/txn" (per_txn c_alloc_words);
        ]
        @ List.map
            (fun c ->
              m
                (name ^ "abort." ^ Obs.abort_cause_name c)
                "count"
                (fi (Obs.abort_count snap c)))
            Obs.abort_causes)
      (List.init ntm Fun.id)
  in
  let hist = fi (max 1 !histories) in
  let checker =
    List.concat_map
      (fun (name, acc) ->
        [
          m (name ^ "_ms") "ms" (fi !acc /. 1e6 /. hist);
          m (name ^ "_ns_per_action") "ns/action"
            (ratio (fi !acc) (fi !certified_actions));
        ])
      (Array.to_list chk)
  in
  let overhead ~base ~other = 100. *. ratio (base -. other) base in
  (* self time: a span's duration minus what its children cover *)
  let spans = Array.concat !all_spans in
  let nspans = Array.length spans / span_fields in
  let child_ns = Hashtbl.create 4096 in
  for i = 0 to nspans - 1 do
    let p = spans.((i * span_fields) + 3) in
    if p <> 0 then begin
      let d = spans.((i * span_fields) + 5) - spans.((i * span_fields) + 4) in
      Hashtbl.replace child_ns p (d + try Hashtbl.find child_ns p with Not_found -> 0)
    end
  done;
  let self = Array.make (Array.length span_names) 0 and root_ns = ref 0 in
  for i = 0 to nspans - 1 do
    let b = i * span_fields in
    let d = spans.(b + 5) - spans.(b + 4) in
    let kids = try Hashtbl.find child_ns spans.(b + 2) with Not_found -> 0 in
    self.(spans.(b)) <- self.(spans.(b)) + max 0 (d - kids);
    if spans.(b) = s_op then root_ns := !root_ns + d
  done;
  let self_pct ids =
    100. *. ratio (fi (List.fold_left (fun a i -> a + self.(i)) 0 ids)) (fi !root_ns)
  in
  let layers =
    [
      ("op", [ s_op ]);
      ("atomic_block", [ s_atomic_block ]);
      ("tm", [ s_begin; s_read; s_write; s_commit; s_fence ]);
      ("generate", [ s_generate ]);
      ("recorder", [ s_recorder ]);
      ( "checkers",
        [ s_well_formed; s_relations; s_race; s_online; s_canonical; s_monitor ] );
      ("runner", [ s_exec; s_exec_thread; s_post ]);
      ("explore", [ s_explore_run; s_explore_drf ]);
    ]
  in
  [
    m "atomic_block.attempts_per_commit" "1/commit" (ratio (sum c_begin) commits);
    m "atomic_block.wasted_ns_per_commit" "ns/commit" (ratio (sum c_wasted_ns) commits);
    m "atomic_block.budget_exhausted" "count" (fi (Atomic.get budget_exhausted));
  ]
  @ per_tm
  @ [
      m "obs.timer_overhead_pct" "%"
        (if kernel cfg then overhead ~base:timers_off ~other:timers_on else 0.);
      m "trace.overhead_pct" "%" (overhead ~base:plain_tl2 ~other:traced_tl2);
      m "recorder.ns_per_action" "ns/action"
        (ratio (fi (!gen_with_ns - !gen_without_ns)) (fi !gen_actions));
      m "recorder.history_ms" "ms" (fi !recorder_history_ns /. 1e6 /. hist);
    ]
  @ checker
  @ [
      m "checker.canonical_rejects" "count" (fi !canonical_rejects);
      m "explore.run_ms" "ms" (fi !explore_run_ns /. 1e6 /. fi (max 1 !explored));
      m "explore.is_drf_ms" "ms" (fi !explore_drf_ns /. 1e6 /. fi (max 1 !explored));
      m "runner.exec_ms" "ms" (fi !exec_ns /. 1e6 /. fi (max 1 !exec_calls));
      m "runner.trial_ms" "ms" trial_ms;
      m "gc.minor_words_per_op" "words/op" (ratio !op_words (fi (max 1 !op_count)));
      m "gc.major_collections" "count" (fi (Gc.quick_stat ()).Gc.major_collections);
    ]
  @ List.map (fun (n, ids) -> m ("self." ^ n ^ "_pct") "%" (self_pct ids)) layers

(* Chrome trace_event JSON of every kept span. *)
let write_spans path =
  let spans = Array.concat !all_spans in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  let n = Array.length spans / span_fields in
  for i = 0 to n - 1 do
    let b = i * span_fields in
    if i > 0 then output_char oc ',';
    Printf.fprintf oc
      "\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"id\":%d,\"parent\":%d}}"
      span_names.(spans.(b)) spans.(b + 6)
      (fi (spans.(b + 4) - process_start_ns) /. 1e3)
      (fi (spans.(b + 5) - spans.(b + 4)) /. 1e3)
      spans.(b + 1) spans.(b + 2) spans.(b + 3)
  done;
  output_string oc "\n]}\n";
  close_out oc;
  Printf.printf "spans %d written to %s\n" n path

(* ------------------------------------------------------------------ *)
(* Main                                                               *)

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun x -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit_)
       ms)

let run cfg =
  let timers = Obs.timers_enabled () in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "meta {\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \
     \"nproc\": %d, \"ocaml\": %S, \"span_timers\": %b, \"client_domains\": \
     %d, \"oversubscribed\": %b}\n%!"
    cfg.workload cfg.seed cfg.seconds cfg.trace cores Sys.ocaml_version timers
    clients (clients > cores);
  let rounds = rounds cfg in
  (* start each round at another TM so no TM always runs first *)
  let order r = List.init ntm (fun k -> (r + k) mod ntm) in
  (* figure-trials model-checks every figure once per round, between
     slices: a correctness check whose cost is a per-layer number *)
  let explore () = if cfg.workload = "figure-trials" then explore_figures () in
  (* An untimed first slice lets the process reach a steady state (its
     first second, while the heap grows, measured up to 5x slower); its
     set-up, from process start, still counts in setup_s. *)
  let warm = slice cfg ~traced:false ~seconds:(Float.min 1. (cfg.seconds /. 10.)) 0 in
  let metrics =
    if not cfg.trace then begin
      let secs = cfg.seconds /. fi (rounds * ntm) in
      let slices =
        List.concat
          (List.init rounds (fun r ->
               explore ();
               List.map (slice cfg ~traced:false ~seconds:secs) (order r)))
      in
      named_lines cfg slices;
      let setup = median (List.map (fun s -> s.setup) (warm :: slices)) in
      Printf.printf "metric setup_s %.6g s\n" setup;
      m "setup_s" "s" setup :: per_tm_end_to_end cfg slices
    end
    else begin
      (* Each round: every TM through the wrapper, plus unwrapped tl2 for
         the tracing overhead and, on the kernel workloads, unwrapped tl2
         and norec with the span timers off and on. *)
      let per_round = ntm + 1 + if kernel cfg then 3 else 0 in
      let secs = cfg.seconds /. fi (rounds * per_round) in
      let traced = ref [] and plain = ref [] and on = ref [] and off = ref [] in
      let plain_slice tm = slice cfg ~traced:false ~seconds:secs tm in
      for r = 0 to rounds - 1 do
        explore ();
        List.iter
          (fun tm -> traced := slice cfg ~traced:true ~seconds:secs tm :: !traced)
          (order r);
        let tl2 = plain_slice 0 in
        plain := tl2 :: !plain;
        if kernel cfg then begin
          on := tl2 :: plain_slice 1 :: !on;
          Obs.set_timers_enabled false;
          off := plain_slice 0 :: plain_slice 1 :: !off;
          Obs.set_timers_enabled timers
        end
      done;
      flush (Domain.DLS.get dom_key);
      let tl2_of l = List.filter (fun s -> s.tm = 0) l in
      let trial_ms =
        if cfg.workload <> "figure-trials" then 0.
        else
          let sum = List.fold_left (fun a s -> a + s.lat.Hist.sum) 0 !traced in
          let n = List.fold_left (fun a s -> a + s.lat.Hist.n) 0 !traced in
          ratio (fi sum) (fi n) /. 1e6
      in
      let traced_tl2 = rate (tl2_of !traced) and plain_tl2 = rate !plain in
      Printf.printf "trace overhead: tl2 %.6g ops/s traced, %.6g untraced\n"
        traced_tl2 plain_tl2;
      (match cfg.spans_out with Some p -> write_spans p | None -> ());
      layer_metrics cfg ~traced_tl2 ~plain_tl2 ~timers_on:(rate !on)
        ~timers_off:(rate !off) ~trial_ms
    end
  in
  List.iter (Printf.eprintf "problem: %s\n") (List.rev !problems);
  let failed = Atomic.get failures in
  let correct = failed = 0 in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted) failed (json_metrics metrics);
  exit (if correct then 0 else 1)

(* The wrapper must not change what a TM does: one client, a fixed op
   sequence, plain vs wrapped, final registers compared. *)
let check_wrapper () =
  let bad = ref 0 in
  Array.iteri
    (fun tm (e : Tm_registry.entry) ->
      let (module E : Tm_registry.TM) = e.Tm_registry.tm in
      List.iter
        (fun workload ->
          let final (module T : Tm_intf.S with type t = E.T.t) =
            let module S = Kernel_slices (T) in
            let make ~nregs = E.make ~nregs ~nthreads:clients () in
            let p =
              S.prepare ~workload ~make ~policy:Fence_policy.Conservative
                ~size:tiny
            in
            let rng = Random.State.make [| 17 |] in
            for i = 0 to 999 do
              ignore (p.op ~thread:0 ~i rng)
            done;
            p.check ();
            p.dump ()
          in
          let plain = final (module E.T) in
          let wrapped =
            final
              (module Traced (struct
                let idx = tm
              end)
              (E.T))
          in
          let same = plain = wrapped && Atomic.get failures = 0 in
          if not same then incr bad;
          Printf.printf "wrapper %s %s: %s\n" e.Tm_registry.name workload
            (if same then "same final state" else "DIFFERENT final state"))
        [ "read-mostly"; "update-fenced" ])
    entries;
  exit (if !bad = 0 then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. in
  let trace = ref 0 and tiny_size = ref false and spans = ref "" in
  let wrapper = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end run, 1: traced per-layer run");
      ("--tiny", Arg.Set tiny_size, " tiny inputs (smoke test)");
      ("--spans", Arg.Set_string spans, " write the traced run's spans here");
      ("--check-wrapper", Arg.Set wrapper, " compare wrapped and plain TMs");
    ]
    (fun a -> raise (Arg.Bad a))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if !wrapper then check_wrapper ();
  if not (List.mem !workload workloads) then begin
    Printf.eprintf "unknown workload %S (one of %s)\n" !workload
      (String.concat ", " workloads);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace is 0 or 1"; exit 2);
  run
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      size = (if !tiny_size then tiny else full);
      spans_out = (if !spans = "" then None else Some !spans);
    }
