(* Experiment harness: regenerates every figure/table-level claim of
   the paper (see DESIGN.md's experiment index and EXPERIMENTS.md for
   the recorded results).

     dune exec bench/main.exe            -- run all experiments
     dune exec bench/main.exe e1 e6      -- run selected experiments
     dune exec bench/main.exe micro      -- bechamel micro-benchmarks

   The paper's evaluation is example-driven: Figures 1, 2, 3 and 6 are
   programs with postconditions and §1 cites quantitative fence
   overheads from Yoo et al. [42].  Each experiment below checks one of
   those claims both at the model level (exhaustive enumeration under
   strong atomicity) and at the runtime level (real TL2 on domains). *)

open Tm_lang
open Tm_runtime
module Runner = Tm_workloads.Runner
module Kernels = Tm_workloads.Kernels

(* All TM selection goes through the registry: one entry per TM, no
   per-TM functor applications in this driver. *)
let tl2_e = Tm_registry.find_exn "tl2"
let tl2_epoch_e = Tm_registry.find_exn "tl2-epoch"
let tl2_two_word_e = Tm_registry.find_exn "tl2-two-word"
let norec_e = Tm_registry.find_exn "norec"
let tlrw_e = Tm_registry.find_exn "tlrw"
let lock_e = Tm_registry.find_exn "lock"

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let subsection title = Printf.printf "--- %s ---\n%!" title

(* Default trial counts: tuned so the whole suite finishes in a few
   minutes on one core.  The SHAPE of each result, not its absolute
   rate, is the reproduction target. *)
let trials = try int_of_string (Sys.getenv "TRIALS") with Not_found -> 150

(* --json (micro only): also write the measurements to
   BENCH_relations.json / BENCH_harness.json. *)
let json_mode = ref false

let nregs = Figures.nregs

(* TL2-family anomaly windows; see DESIGN.md (the paper's testbed
   exhibits the same races through OS preemption instead). *)
let widened =
  {
    Tm_registry.commit_delay = 300_000;
    writeback_delay = 0;
    delay_threads = Some [ 1 ];
  }

let writer_widened =
  {
    Tm_registry.commit_delay = 0;
    writeback_delay = 500_000;
    delay_threads = Some [ 0 ];
  }

let print_model_verdict (fig : Figures.figure) =
  Printf.printf "  model: DRF=%b (expected %b); "
    (Explore.is_drf ~fuel:fig.Figures.f_fuel fig.Figures.f_program)
    fig.Figures.f_drf;
  let outcomes = Explore.run ~fuel:fig.Figures.f_fuel fig.Figures.f_program in
  let post =
    List.for_all
      (fun o ->
        o.Explore.diverged || fig.Figures.f_post o.Explore.envs o.Explore.regs)
      outcomes
  in
  Printf.printf "postcondition under H_atomic=%b (%d executions)\n%!" post
    (List.length outcomes)

let row name (s : Runner.trial_stats) =
  Printf.printf "  %-28s violations %4d / %-4d   divergences %4d   aborted \
                 runs %4d\n%!"
    name s.Runner.violations s.Runner.trials s.Runner.divergences
    s.Runner.aborted_runs

(* --------------------------- E1: Fig 1(a) -------------------------- *)

let e1 () =
  section "E1  Figure 1(a): delayed commit (TL2, widened commit window)";
  print_model_verdict (Figures.fig1a ~fenced:false ());
  print_model_verdict (Figures.fig1a ~fenced:true ());
  let run ~fenced policy =
    Runner.run_trials_auto_entry ~fuel:100_000 ~window:widened ~tm:tl2_e
      ~policy ~trials ~nregs
      (Figures.fig1a ~handshake:true ~fenced ())
  in
  row "no fence" (run ~fenced:false Fence_policy.No_fences);
  row "selective fence" (run ~fenced:true Fence_policy.Selective);
  row "conservative fences" (run ~fenced:false Fence_policy.Conservative);
  (* NOrec and TLRW are privatization-safe without fences (§8): the
     committing writer holds the sequence lock through write-back /
     readers are visible. *)
  let safe name e =
    row name
      (Runner.run_trials_auto_entry ~fuel:100_000 ~tm:e
         ~policy:Fence_policy.No_fences ~trials ~nregs
         (Figures.fig1a ~handshake:true ~fenced:false ()))
  in
  safe "no fence (NOrec, safe)" norec_e;
  safe "no fence (TLRW, safe)" tlrw_e

(* --------------------------- E2: Fig 1(b) -------------------------- *)

let e2 () =
  section "E2  Figure 1(b): doomed transaction (divergences = doomed loops)";
  print_model_verdict (Figures.fig1b ~fenced:false ());
  print_model_verdict (Figures.fig1b ~fenced:true ());
  let spin = 300_000 in
  let fuel = (2 * spin) + 30_000 in
  let run ~fenced policy =
    Runner.run_trials_auto_entry ~fuel ~tm:tl2_e ~policy
      ~trials:(max 30 (trials / 3)) ~nregs
      (Figures.fig1b ~handshake:true ~spin ~fenced ())
  in
  row "no fence" (run ~fenced:false Fence_policy.No_fences);
  row "selective fence" (run ~fenced:true Fence_policy.Selective)

(* ---------------------------- E3: Fig 2 ---------------------------- *)

let e3 () =
  section "E3  Figure 2: publication (safe with no fence)";
  print_model_verdict Figures.fig2;
  let run e policy =
    Runner.run_trials_auto_entry ~fuel:100_000 ~tm:e ~policy ~trials ~nregs
      Figures.fig2
  in
  row "no fence (TL2)" (run tl2_e Fence_policy.No_fences);
  row "no fence (NOrec)" (run norec_e Fence_policy.No_fences)

(* ---------------------------- E4: Fig 3 ---------------------------- *)

let e4 () =
  section "E4  Figure 3: racy program observes intermediate states";
  print_model_verdict Figures.fig3;
  let fig = Figures.with_pre_spins [| 0; 400 |] Figures.fig3 in
  let s =
    Runner.run_trials_auto_entry ~fuel:100_000 ~window:writer_widened
      ~tm:tl2_e ~policy:Fence_policy.No_fences ~trials ~nregs fig
  in
  row "TL2 (weakly atomic)" s;
  Printf.printf
    "  (under H_atomic the postcondition always holds; fences cannot fix a \
     racy program)\n%!"

(* ---------------------------- E5: Fig 6 ---------------------------- *)

let e5 () =
  section "E5  Figure 6: privatization by agreement outside transactions";
  print_model_verdict Figures.fig6;
  let s =
    Runner.run_trials_auto_entry ~fuel:5_000_000 ~tm:tl2_e
      ~policy:Fence_policy.No_fences ~trials:(max 30 (trials / 3)) ~nregs
      Figures.fig6
  in
  row "no fence (TL2)" s

(* ----------------- E6: fence overhead (Yoo et al.) ----------------- *)

let e6 () =
  section
    "E6  Fence-placement overhead across kernels (shape of Yoo et al. [42])";
  let threads = 3 in
  let ops k = match k with "swap" -> 600 | _ -> 3_000 in
  let policies =
    Fence_policy.[ No_fences; Selective; Conservative; Skip_read_only ]
  in
  Printf.printf "  %-18s %14s %14s %14s %14s\n%!" "kernel" "none (ops/s)"
    "selective" "conservative" "skip-ro";
  let overheads = ref [] in
  let sel_overheads = ref [] in
  let e6_kernels =
    List.filter (fun n -> n <> "counter/contended") Kernels.kernel_names
  in
  List.iter
    (fun kernel ->
      (* median of three runs per configuration: single-shot throughput
         on a time-sliced host is too noisy *)
      let throughput policy =
        let once () =
          (Kernels.run_entry ~tm:tl2_e ~kernel ~threads
             ~ops_per_thread:(ops kernel) ~policy ~seed:42 ())
            .Kernels.throughput
        in
        match List.sort compare [ once (); once (); once () ] with
        | [ _; median; _ ] -> median
        | _ -> assert false
      in
      let results = List.map (fun p -> (p, throughput p)) policies in
      let base = List.assoc Fence_policy.No_fences results in
      Printf.printf "  %-18s" kernel;
      List.iter (fun (_, thr) -> Printf.printf " %14.0f" thr) results;
      Printf.printf "\n%!";
      let conservative = List.assoc Fence_policy.Conservative results in
      let selective = List.assoc Fence_policy.Selective results in
      overheads := ((base /. conservative) -. 1.0) *. 100.0 :: !overheads;
      sel_overheads := ((base /. selective) -. 1.0) *. 100.0 :: !sel_overheads)
    e6_kernels;
  let summarize name os =
    let avg = List.fold_left ( +. ) 0.0 os /. float_of_int (List.length os) in
    let worst = List.fold_left max neg_infinity os in
    Printf.printf "  %s overhead vs no fences: average %.0f%%, worst case \
                   %.0f%%\n"
      name avg worst
  in
  summarize "conservative-fencing" !overheads;
  summarize "selective-fencing" !sel_overheads;
  Printf.printf
    "  (paper cites Yoo et al. [42] for conservative fencing: 32%% average, \
     107%% worst case)\n%!"

(* ------------------ E7: the GCC read-only-fence bug ----------------- *)

let e7 () =
  section "E7  Zhou et al. [43]: eliding fences after read-only transactions";
  print_model_verdict (Figures.fig1a_read_only_privatizer ~fenced:false ());
  print_model_verdict (Figures.fig1a_read_only_privatizer ~fenced:true ());
  let run ~fenced policy =
    Runner.run_trials_auto_entry ~fuel:700_000 ~window:widened ~tm:tl2_e
      ~policy ~trials ~nregs
      (Figures.fig1a_read_only_privatizer ~handshake:true ~fenced ())
  in
  row "no fence" (run ~fenced:false Fence_policy.No_fences);
  row "selective fence" (run ~fenced:true Fence_policy.Selective);
  row "skip-read-only (GCC bug)" (run ~fenced:true Fence_policy.Skip_read_only);
  row "conservative" (run ~fenced:false Fence_policy.Conservative)

(* ------------- E8: strong opacity of recorded histories ------------- *)

let e8 () =
  section "E8  Strong opacity of recorded TL2 histories (graph checker)";
  let runs = max 10 (trials / 10) in
  let classify name variant delay spin =
    let ok, racy, cyc =
      Tm_workloads.Random_workload.anomaly_rate ~variant ~commit_delay:delay
        ~txn_spin:spin ~runs ()
    in
    (* the incremental Figure-10 monitor must agree in direction *)
    let monitor_ok = ref 0 in
    for seed = 1 to runs do
      let h =
        Tm_workloads.Random_workload.generate ~variant ~commit_delay:delay
          ~txn_spin:spin ~seed ()
      in
      if Tm_opacity.Monitor.check h = Tm_opacity.Monitor.Ok then
        incr monitor_ok
    done;
    Printf.printf
      "  %-28s ok %3d   racy %3d   not-opaque %3d   monitor-ok %3d  (of %d)\n%!"
      name ok racy cyc !monitor_ok runs
  in
  classify "TL2 (correct)" Tl2.Normal 0 0;
  classify "TL2 (correct, stressed)" Tl2.Normal 20_000 200_000;
  classify "TL2 w/o read validation" Tl2.No_read_validation 20_000 200_000;
  classify "TL2 w/o commit validation" Tl2.No_commit_validation 20_000 200_000

(* -------------- E9: checker vs exhaustive witness oracle ------------ *)

let e9 () =
  section "E9  Graph checker vs exhaustive witness oracle (random histories)";
  let tested = ref 0 and agree = ref 0 and opaque = ref 0 in
  let seeds = max 200 trials in
  for seed = 1 to seeds do
    let h =
      Tm_workloads.History_gen.generate ~seed ~threads:2 ~registers:2
        ~steps:4 ()
    in
    if
      Tm_model.History.is_well_formed h
      && Tm_workloads.History_gen.node_count h <= 7
    then begin
      incr tested;
      let g = Tm_opacity.Checker.is_opaque (Tm_opacity.Checker.check h) in
      let o = Tm_opacity.Checker.check_exhaustive_witness h in
      if g then incr opaque;
      if g = o then incr agree
    end
  done;
  Printf.printf
    "  %d histories tested: %d strongly opaque, agreement %d/%d\n%!" !tested
    !opaque !agree !tested

(* ------------------------ E10: scalability ------------------------- *)

let e10 () =
  section "E10  Throughput of TL2 / NOrec / global-lock (single-core host!)";
  let ops_per_thread = 3_000 in
  subsection "bank kernel";
  List.iter
    (fun e ->
      List.iter
        (fun threads ->
          let s =
            Kernels.run_entry ~tm:e ~kernel:"bank" ~threads ~ops_per_thread
              ~policy:Fence_policy.No_fences ~seed:7 ()
          in
          Printf.printf "  %-12s %d thread(s): %10.0f ops/s\n%!"
            e.Tm_registry.name threads s.Kernels.throughput)
        [ 1; 2; 4 ])
    [ tl2_e; norec_e; lock_e ];
  subsection "abort rates under contention (contended counter, 4 threads)";
  let s =
    Kernels.run_entry ~tm:tl2_e ~kernel:"counter/contended" ~threads:4
      ~ops_per_thread ~policy:Fence_policy.No_fences ~seed:7 ()
  in
  Printf.printf "  tl2 contended: %d ops, %d retries (%.2f retries/op)\n%!"
    s.Kernels.ops s.Kernels.retries
    (float_of_int s.Kernels.retries /. float_of_int s.Kernels.ops)

(* ------------- E11: fence implementation ablation (A1) ------------- *)

let e11 () =
  section
    "E11  Fence implementations: two-pass flag scan (Fig 7) vs RCU epochs";
  (* Run fences against sustained back-to-back transaction load for a
     fixed wall-clock window (many scheduling quanta) and report the
     achieved fence rate: on a time-sliced host, single-fence latencies
     alias with the quantum, but the sustained rate integrates over
     it. *)
  let window = 0.4 in
  let measure (e : Tm_registry.entry) =
    let module M = (val e.Tm_registry.tm) in
    let module AB = Atomic_block.Make (M.T) in
    let tm = M.make ~nregs:8 ~nthreads:2 () in
    let stop = Atomic.make false in
    let worker =
      Domain.spawn (fun () ->
          while not (Atomic.get stop) do
            let (), _ =
              AB.run tm ~thread:1 (fun txn ->
                  let v = M.T.read tm txn 0 in
                  for i = 1 to 7 do
                    ignore (M.T.read tm txn i)
                  done;
                  M.T.write tm txn 0 (v + 1))
            in
            ()
          done)
    in
    let t0 = Unix.gettimeofday () in
    let fences = ref 0 in
    while Unix.gettimeofday () -. t0 < window do
      M.T.fence tm ~thread:0;
      incr fences
    done;
    let dt = Unix.gettimeofday () -. t0 in
    Atomic.set stop true;
    Domain.join worker;
    float_of_int !fences /. dt
  in
  (* alternate implementations across rounds; medians integrate over
     the host's scheduling quanta *)
  let rounds = 5 in
  let flag_samples = ref [] and epoch_samples = ref [] in
  for _ = 1 to rounds do
    flag_samples := measure tl2_e :: !flag_samples;
    epoch_samples := measure tl2_epoch_e :: !epoch_samples
  done;
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  Printf.printf
    "  flag-scan fence rate under txn load: %10.0f fences/s (median of %d)\n"
    (median !flag_samples) rounds;
  Printf.printf
    "  epoch fence rate under txn load:     %10.0f fences/s (median of %d)\n"
    (median !epoch_samples) rounds;
  Printf.printf
    "  (the flag scan may wait for transactions that began after it; the \
     epoch fence waits for at most one per thread)\n%!"

(* ------------------------- JSON emission --------------------------- *)

(* All BENCH_*.json files go through the shared tree emitter; this
   driver used to carry three copies of an escape/Buffer blob. *)
module J = Tm_obs.Json

let write_json path v =
  J.write_file path v;
  Printf.printf "  wrote %s\n%!" path

(* ------------------ trial-throughput benchmark ---------------------- *)

(* End-to-end harness throughput: the same figure-program trial batch
   once through the sequential runner and once through the domain-pool
   runner.  fig2 (publication) is used because it is safe on TL2 with
   no fences: every trial is "normal" work, no anomaly windows. *)
let harness_bench () =
  subsection "trial throughput: sequential vs parallel harness";
  let bench_trials = max 24 (min trials 120) in
  let fig = Figures.fig2 in
  let policy = Fence_policy.No_fences in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let seq_stats, seq_s =
    time (fun () ->
        Runner.run_trials_entry ~fuel:100_000 ~tm:tl2_e ~policy
          ~trials:bench_trials ~nregs fig)
  in
  let domains = Pool.default_domains ~reserve:2 () in
  let par_stats, par_s =
    time (fun () ->
        Runner.run_trials_parallel_entry ~fuel:100_000 ~domains ~tm:tl2_e
          ~policy ~trials:bench_trials ~nregs fig)
  in
  let speedup = seq_s /. par_s in
  let seeds_identical = seq_stats.Runner.seeds = par_stats.Runner.seeds in
  (* What the auto runner would actually do with this batch: on a
     single-core host (or a tiny batch) it takes the sequential path
     instead of paying for a pool that cannot help, and the JSON
     records that decision. *)
  let mode =
    if Runner.auto_parallel ~domains ~trials:bench_trials () then "parallel"
    else "sequential-fallback"
  in
  let counts (s : Runner.trial_stats) =
    (s.Runner.violations, s.Runner.divergences, s.Runner.aborted_runs)
  in
  Printf.printf
    "  %d trials of %s: sequential %.3fs, parallel (%d domains) %.3fs, \
     speedup %.2fx\n%!"
    bench_trials fig.Figures.f_name seq_s domains par_s speedup;
  Printf.printf "  per-trial seeds identical: %b   auto-runner mode: %s\n%!"
    seeds_identical mode;
  if !json_mode then begin
    let stats_json s =
      let v, d, a = counts s in
      J.Obj
        [
          ("violations", J.Int v); ("divergences", J.Int d);
          ("aborted_runs", J.Int a);
        ]
    in
    write_json "BENCH_harness.json"
      (J.Obj
         [
           ("schema", J.String "bench/harness/v1");
           ("benchmark", J.String "trial-throughput");
           ("figure", J.String fig.Figures.f_name);
           ("tm", J.String "tl2");
           ("policy", J.String (Fence_policy.name policy));
           ("trials", J.Int bench_trials);
           ("cores", J.Int (Domain.recommended_domain_count ()));
           ("domains", J.Int domains);
           ("sequential_s", J.Float seq_s);
           ("parallel_s", J.Float par_s);
           ("speedup", J.Float speedup);
           ("mode", J.String mode);
           ("seeds_identical", J.Bool seeds_identical);
           ("sequential", stats_json seq_stats);
           ("parallel", stats_json par_stats);
         ])
  end

(* ------------------- recorder logging throughput -------------------- *)

(* Multi-domain logging throughput of the sharded recorder against the
   reference mutex recorder ([Recorder.Locked]): each domain logs a
   fixed number of request/response pairs into a fresh recorder; the
   rate counts individual log calls.  Median of three runs per
   configuration. *)
let recorder_bench () =
  subsection "recorder: sharded vs mutex logging throughput";
  (* start from a compacted heap: the bechamel suite leaves a large
     major heap behind, which would tax both recorders' GC slices and
     compress the measured ratio *)
  Gc.compact ();
  let pairs_per_domain = 300_000 in
  let run_one ~log ndomains =
    (* two-phase start so domain spawn cost stays outside the timed
       window: workers check in, the main thread stamps t0 and fires
       the go flag *)
    let ready = Atomic.make 0 in
    let go = Atomic.make false in
    let worker thread () =
      Atomic.incr ready;
      while not (Atomic.get go) do
        Domain.cpu_relax ()
      done;
      (* hoisted so the loop measures recorder cost, not action
         allocation (which both implementations would pay equally) *)
      let req = Tm_model.Action.Request (Tm_model.Action.Write (0, thread)) in
      let resp = Tm_model.Action.Response Tm_model.Action.Ret_unit in
      for _ = 1 to pairs_per_domain do
        log ~thread req;
        log ~thread resp
      done
    in
    let ds = Array.init ndomains (fun t -> Domain.spawn (worker t)) in
    while Atomic.get ready < ndomains do
      Domain.cpu_relax ()
    done;
    let t0 = Unix.gettimeofday () in
    Atomic.set go true;
    Array.iter Domain.join ds;
    let dt = Unix.gettimeofday () -. t0 in
    float_of_int (2 * pairs_per_domain * ndomains) /. dt
  in
  let median5 f =
    (* one discarded warmup, then the median of five: single runs on a
       time-sliced host swing by 2x either way *)
    ignore (f ());
    match List.sort compare [ f (); f (); f (); f (); f () ] with
    | [ _; _; m; _; _ ] -> m
    | _ -> assert false
  in
  let sharded_rate ndomains =
    median5 (fun () ->
        let r = Recorder.create () in
        run_one ~log:(fun ~thread k -> Recorder.log r ~thread k) ndomains)
  in
  let locked_rate ndomains =
    median5 (fun () ->
        let r = Recorder.Locked.create () in
        run_one
          ~log:(fun ~thread k -> Recorder.Locked.log r ~thread k)
          ndomains)
  in
  let rows =
    List.map (fun d -> (d, sharded_rate d, locked_rate d)) [ 1; 2; 4 ]
  in
  List.iter
    (fun (d, s, l) ->
      Printf.printf
        "  %d domain(s): sharded %11.0f logs/s   mutex %11.0f logs/s   \
         (%.2fx)\n%!"
        d s l (s /. l))
    rows;
  let speedup_4 =
    match List.assoc_opt 4 (List.map (fun (d, s, l) -> (d, s /. l)) rows) with
    | Some x -> x
    | None -> 0.0
  in
  if !json_mode then
    write_json "BENCH_recorder.json"
      (J.Obj
         [
           ("schema", J.String "bench/recorder/v1");
           ("generated_by", J.String "bench/main.exe micro --json");
           ("cores", J.Int (Domain.recommended_domain_count ()));
           ("pairs_per_domain", J.Int pairs_per_domain);
           ("unit", J.String "log calls per second");
           ( "results",
             J.Arr
               (List.map
                  (fun (d, s, l) ->
                    J.Obj
                      [
                        ("domains", J.Int d);
                        ("sharded_logs_per_s", J.Float s);
                        ("mutex_logs_per_s", J.Float l);
                        ("speedup", J.Float (s /. l));
                      ])
                  rows) );
           ("speedup_4dom", J.Float speedup_4);
         ])

(* ----------------------- telemetry benchmark ------------------------ *)

(* Per-TM abort-cause breakdowns and span histograms from one contended
   kernel run, plus the cost of the span timers themselves (enabled vs
   the [OBS=0] state).  Conservative fencing so the fence-wait
   histogram is populated — under [Selective] most kernels request few
   or no fences. *)
let obs_bench () =
  subsection "telemetry: abort causes, span histograms, timer overhead";
  let module Obs = Tm_obs.Obs in
  let threads = 4 and ops_per_thread = 1_500 in
  let kernel = "counter/contended" in
  let policy = Fence_policy.Conservative in
  let runs =
    List.map
      (fun (e : Tm_registry.entry) ->
        let stats, snap =
          Kernels.run_entry_obs ~tm:e ~kernel ~threads ~ops_per_thread ~policy
            ~seed:11 ()
        in
        Printf.printf "  %s:\n%!" e.Tm_registry.name;
        Format.printf "    @[<v>%a@]@." Obs.pp_snapshot snap;
        (e, stats, snap))
      [ tl2_e; norec_e; tlrw_e; lock_e ]
  in
  (* Timer cost, two scales, each the median of three with span timers
     on vs off (counters stay on in both states).

     - worst case: a two-access transaction plus a conservative fence is
       almost nothing but timer sites, so this bounds the per-span cost;
     - acceptance: the harness micro-bench (figure-program trial batch,
       as in [harness_bench]) must stay within 5% of its [OBS=0]
       throughput — interpretation dominates, the timers disappear. *)
  let was = Obs.timers_enabled () in
  (* start each comparison from a compacted heap, interleave the
     enabled/disabled runs pairwise and take the median of the paired
     ratios: on a time-sliced host the slow phases hit both sides of a
     pair, where back-to-back blocks of one configuration can land
     entirely inside one *)
  let median_ratio_of_pairs run =
    Gc.compact ();
    (* alternate which configuration runs first: the second run of a
       pair sees the heap the first one grew, a systematic bias that
       alternation cancels *)
    let pair i =
      let one enabled =
        Obs.set_timers_enabled enabled;
        run ()
      in
      if i land 1 = 0 then
        let on = one true in
        (on, one false)
      else
        let off = one false in
        let on = one true in
        (on, off)
    in
    ignore (pair 0);
    ignore (pair 1);
    let pairs = List.init 6 pair in
    let ratios = List.sort compare (List.map (fun (a, b) -> a /. b) pairs) in
    ((List.nth ratios 2 +. List.nth ratios 3) /. 2.0, pairs)
  in
  let kernel_ratio, kernel_pairs =
    median_ratio_of_pairs (fun () ->
        (Kernels.run_entry ~tm:tl2_e ~kernel:"counter/padded" ~threads:2
           ~ops_per_thread:4_000 ~policy:Fence_policy.Conservative ~seed:3 ())
          .Kernels.throughput)
  in
  let bench_trials = max 24 (min trials 96) in
  let harness_ratio, harness_pairs =
    median_ratio_of_pairs (fun () ->
        let t0 = Unix.gettimeofday () in
        ignore
          (Runner.run_trials_entry ~fuel:100_000 ~tm:tl2_e
           ~policy:Fence_policy.Selective ~trials:bench_trials ~nregs
             Figures.fig2);
        Unix.gettimeofday () -. t0)
  in
  Obs.set_timers_enabled was;
  let mean f l =
    List.fold_left (fun a x -> a +. f x) 0. l /. float_of_int (List.length l)
  in
  let kernel_on = mean fst kernel_pairs in
  let kernel_off = mean snd kernel_pairs in
  let harness_on = mean fst harness_pairs in
  let harness_off = mean snd harness_pairs in
  (* kernel_ratio is throughput on/off (<1 when timers cost); the
     harness ratio is elapsed on/off (>1 when timers cost) *)
  let overhead_pct = ((1.0 /. kernel_ratio) -. 1.0) *. 100.0 in
  let harness_overhead_pct = (harness_ratio -. 1.0) *. 100.0 in
  Printf.printf
    "  span timers, worst case (counter/padded, tl2, conservative): enabled \
     %.0f ops/s, disabled %.0f ops/s (overhead %.1f%%)\n%!"
    kernel_on kernel_off overhead_pct;
  Printf.printf
    "  span timers, harness micro-bench (%d fig2 trials, tl2): enabled \
     %.3fs, disabled %.3fs (overhead %.1f%%, target <= 5%%)\n%!"
    bench_trials harness_on harness_off harness_overhead_pct;
  if harness_overhead_pct > 5.0 then
    Printf.printf
      "  WARNING: obs timer overhead on the harness micro-bench exceeds the \
       5%% target\n%!";
  (* backstop against gross regressions, the bound EXPERIMENTS.md
     documents (sampled spans measure under 1%; the slack absorbs the
     swing of medians on a time-sliced host) *)
  assert (harness_overhead_pct < 25.0);
  if !json_mode then
    write_json "BENCH_obs.json"
      (J.Obj
         [
           ("schema", J.String "bench/obs/v1");
           ("generated_by", J.String "bench/main.exe micro --json");
           ("cores", J.Int (Domain.recommended_domain_count ()));
           ("kernel", J.String kernel);
           ("policy", J.String (Fence_policy.name policy));
           ("threads", J.Int threads);
           ("ops_per_thread", J.Int ops_per_thread);
           ( "tms",
             J.Obj
               (List.map
                  (fun ((e : Tm_registry.entry), stats, snap) ->
                    ( e.Tm_registry.name,
                      J.Obj
                        [
                          ("throughput", J.Float stats.Kernels.throughput);
                          ("retries", J.Int stats.Kernels.retries);
                          ("fences", J.Int stats.Kernels.fences);
                          ("obs", Obs.snapshot_json snap);
                        ] ))
                  runs) );
           ( "timer_overhead",
             J.Obj
               [
                 ("kernel_enabled_ops_per_s", J.Float kernel_on);
                 ("kernel_disabled_ops_per_s", J.Float kernel_off);
                 ("kernel_overhead_pct", J.Float overhead_pct);
                 ("harness_enabled_s", J.Float harness_on);
                 ("harness_disabled_s", J.Float harness_off);
                 ("harness_overhead_pct", J.Float harness_overhead_pct);
                 ("harness_within_target", J.Bool (harness_overhead_pct <= 5.0));
               ] );
         ])

(* ------------------- TL2 hot-path benchmark ------------------------- *)

(* Throughput of the overhauled TL2 (packed lock words next to their
   values, read-only commit fast path, reusable descriptors) against
   the frozen Figure 9 implementation ("tl2-two-word"), on three mixes:

   - read-only: 8-read transactions over 256 registers — all commits
     take the no-lock, no-FAA fast path;
   - write-heavy: 8-register read-modify-writes over 1024 registers —
     lock acquisition, clock FAA and write-back on every commit;
   - contended: single-register increments from every thread — the
     abort-heavy regime of BENCH_obs.json's counter/contended kernel.

   A fence is issued every [tl2_fence_every] ops so both fence
   implementations (tl2 = flag-scan, tl2-epoch = epoch) stay on the
   measured path.  Read-only must beat write-heavy for the tl2 family
   at every domain count; `tmcheck bench-validate` and the bench-smoke
   CI job fail on an inversion. *)

let tl2_ops =
  try int_of_string (Sys.getenv "TL2_OPS") with Not_found -> 8_000

let tl2_fence_every = 64

type tl2_row = {
  tr_tm : string;
  tr_mix : string;
  tr_threads : int;
  tr_ops : int;
  tr_seconds : float;
  tr_throughput : float;
  tr_retries : int;
  tr_fences : int;
}

let run_tl2_mix (e : Tm_registry.entry) ~mix_name ~mix ~threads ~seed =
  let module M = (val e.Tm_registry.tm) in
  let module AB = Atomic_block.Make (M.T) in
  let nregs, op =
    match mix with
    | `Read_only ->
        ( 256,
          fun tm ~thread ~rng ->
            let base = Random.State.int rng 256 in
            let (_ : int), retries =
              AB.run tm ~thread (fun txn ->
                  let total = ref 0 in
                  for k = 0 to 7 do
                    total :=
                      !total + M.T.read tm txn ((base + (31 * k)) mod 256)
                  done;
                  !total)
            in
            retries )
    | `Write_heavy ->
        ( 1_024,
          fun tm ~thread ~rng ->
            let base = Random.State.int rng 1_024 in
            let (), retries =
              AB.run tm ~thread (fun txn ->
                  for k = 0 to 7 do
                    let x = (base + (131 * k)) mod 1_024 in
                    let v = M.T.read tm txn x in
                    M.T.write tm txn x (v + 1)
                  done)
            in
            retries )
    | `Contended ->
        ( 1,
          fun tm ~thread ~rng:_ ->
            let (), retries =
              AB.run tm ~thread (fun txn ->
                  let v = M.T.read tm txn 0 in
                  M.T.write tm txn 0 (v + 1))
            in
            retries )
  in
  let tm = M.make ~nregs ~nthreads:threads () in
  let retries = Atomic.make 0 in
  let fences = Atomic.make 0 in
  (* two-phase start so domain spawn cost stays outside the timed
     window (as in recorder_bench): workers check in, the main thread
     stamps t0 and fires the go flag — at small TL2_OPS the spawns
     would otherwise dominate the window *)
  let ready = Atomic.make 0 in
  let go = Atomic.make false in
  let worker thread =
    let rng = Random.State.make [| seed; thread |] in
    Atomic.incr ready;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    for i = 0 to tl2_ops - 1 do
      let r = op tm ~thread ~rng in
      if r > 0 then ignore (Atomic.fetch_and_add retries r);
      if i mod tl2_fence_every = tl2_fence_every - 1 then begin
        M.T.fence tm ~thread;
        Atomic.incr fences
      end
    done
  in
  let domains =
    Array.init threads (fun t -> Domain.spawn (fun () -> worker t))
  in
  while Atomic.get ready < threads do
    Domain.cpu_relax ()
  done;
  let t0 = Unix.gettimeofday () in
  Atomic.set go true;
  Array.iter Domain.join domains;
  let seconds = Unix.gettimeofday () -. t0 in
  let ops = threads * tl2_ops in
  {
    tr_tm = e.Tm_registry.name;
    tr_mix = mix_name;
    tr_threads = threads;
    tr_ops = ops;
    tr_seconds = seconds;
    tr_throughput = float_of_int ops /. seconds;
    tr_retries = Atomic.get retries;
    tr_fences = Atomic.get fences;
  }

let tl2_bench () =
  section "TL2 hot-path throughput: packed-word tl2 vs Figure 9 two-word";
  let tms = [ tl2_e; tl2_epoch_e; tl2_two_word_e ] in
  let mixes =
    [
      ("read-only", `Read_only); ("write-heavy", `Write_heavy);
      ("contended", `Contended);
    ]
  in
  let thread_counts = [ 1; 2; 4 ] in
  (* start from a compacted heap (the bechamel phase of `micro` leaves
     a large one behind), and interleave the competing TMs within each
     round rather than running each TM's samples back to back: a slow
     scheduling phase of the time-sliced host then hits every TM
     instead of landing entirely inside one, and the per-configuration
     median over rounds compares like with like *)
  Gc.compact ();
  (* span timers off for the measurement: both implementations pay the
     same sampled clock calls at commit when they are on, a shared
     constant that dilutes the algorithmic difference this benchmark
     isolates (obs_bench measures the timer cost itself, separately) *)
  let timers_were = Tm_obs.Obs.timers_enabled () in
  Tm_obs.Obs.set_timers_enabled false;
  let rounds = 5 in
  let median samples =
    match
      List.sort (fun a b -> compare a.tr_throughput b.tr_throughput) samples
    with
    | [] -> assert false
    | l -> List.nth l (List.length l / 2)
  in
  let rows =
    List.concat_map
      (fun (mix_name, mix) ->
        List.concat_map
          (fun threads ->
            let samples =
              List.init rounds (fun _ ->
                  List.map
                    (fun e -> run_tl2_mix e ~mix_name ~mix ~threads ~seed:17)
                    tms)
            in
            List.mapi
              (fun i _ -> median (List.map (fun round -> List.nth round i) samples))
              tms)
          thread_counts)
      mixes
  in
  Tm_obs.Obs.set_timers_enabled timers_were;
  Printf.printf "  %-14s %-12s %8s %12s %9s %8s\n%!" "tm" "mix" "threads"
    "ops/s" "retries" "fences";
  List.iter
    (fun r ->
      Printf.printf "  %-14s %-12s %8d %12.0f %9d %8d\n%!" r.tr_tm r.tr_mix
        r.tr_threads r.tr_throughput r.tr_retries r.tr_fences)
    rows;
  let throughput tm mix threads =
    match
      List.find_opt
        (fun r -> r.tr_tm = tm && r.tr_mix = mix && r.tr_threads = threads)
        rows
    with
    | Some r -> r.tr_throughput
    | None -> nan
  in
  let speedup mix threads =
    throughput "tl2" mix threads /. throughput "tl2-two-word" mix threads
  in
  let ro_speedup = speedup "read-only" 1 in
  let wh_speedup = speedup "write-heavy" 1 in
  let contended_speedup_4 = speedup "contended" 4 in
  let contended_4 = throughput "tl2" "contended" 4 in
  (* the inversion guard the CI job enforces via bench-validate *)
  let inversion_ok =
    List.for_all
      (fun (e : Tm_registry.entry) ->
        List.for_all
          (fun threads ->
            throughput e.Tm_registry.name "read-only" threads
            >= throughput e.Tm_registry.name "write-heavy" threads)
          thread_counts)
      tms
  in
  Printf.printf
    "  tl2 vs tl2-two-word, 1 domain: read-only %.2fx, write-heavy %.2fx\n%!"
    ro_speedup wh_speedup;
  Printf.printf
    "  tl2 vs tl2-two-word, contended, 4 domains: %.2fx (%.0f ops/s)\n%!"
    contended_speedup_4 contended_4;
  Printf.printf "  read-only >= write-heavy everywhere: %b\n%!" inversion_ok;
  if !json_mode then
    write_json "BENCH_tl2.json"
      (J.Obj
         [
           ("schema", J.String "bench/tl2/v1");
           ("generated_by", J.String "bench/main.exe tl2 --json");
           ("cores", J.Int (Domain.recommended_domain_count ()));
           ("ops_per_thread", J.Int tl2_ops);
           ("fence_every", J.Int tl2_fence_every);
           ("span_timers", J.Bool false);
           ( "results",
             J.Arr
               (List.map
                  (fun r ->
                    J.Obj
                      [
                        ("tm", J.String r.tr_tm);
                        ("mix", J.String r.tr_mix);
                        ("threads", J.Int r.tr_threads);
                        ("ops", J.Int r.tr_ops);
                        ("seconds", J.Float r.tr_seconds);
                        ("ops_per_s", J.Float r.tr_throughput);
                        ("retries", J.Int r.tr_retries);
                        ("fences", J.Int r.tr_fences);
                      ])
                  rows) );
           ( "summary",
             J.Obj
               [
                 ("read_only_speedup_1dom", J.Float ro_speedup);
                 ("write_heavy_speedup_1dom", J.Float wh_speedup);
                 ("contended_speedup_4dom", J.Float contended_speedup_4);
                 ("contended_4dom_ops_per_s", J.Float contended_4);
                 ("read_only_beats_write_heavy", J.Bool inversion_ok);
               ] );
         ])

(* ---------------------- bechamel micro suite ------------------------ *)

let micro () =
  (* the recorder family runs first: the bechamel phase perturbs the
     process GC/heap state in a way that depresses later multi-domain
     throughput on a single-core host, which would understate the
     sharded recorder's advantage *)
  recorder_bench ();
  section "micro-benchmarks (bechamel)";
  let open Bechamel in
  let open Toolkit in
  (* Per-TM micro benches, generated from the registry's correct
     entries: each gets a shared instance exercised from the main
     domain. *)
  let entry_tests =
    List.concat_map
      (fun (e : Tm_registry.entry) ->
        let module M = (val e.Tm_registry.tm) in
        let module AB = Atomic_block.Make (M.T) in
        let tm = M.make ~nregs:64 ~nthreads:2 () in
        let name suffix = e.Tm_registry.name ^ "/" ^ suffix in
        [
          Test.make ~name:(name "txn-read")
            (Staged.stage (fun () ->
                 let txn = M.T.txn_begin tm ~thread:0 in
                 let v = M.T.read tm txn 0 in
                 M.T.commit tm txn;
                 Sys.opaque_identity v));
          Test.make ~name:(name "txn-read-modify-write")
            (Staged.stage (fun () ->
                 let (), _ =
                   AB.run tm ~thread:0 (fun txn ->
                       let v = M.T.read tm txn 2 in
                       M.T.write tm txn 2 (v + 1))
                 in
                 ()));
          Test.make ~name:(name "nontxn-read")
            (Staged.stage (fun () ->
                 Sys.opaque_identity (M.T.read_nt tm ~thread:0 3)));
          Test.make ~name:(name "fence-idle")
            (Staged.stage (fun () -> M.T.fence tm ~thread:0));
        ])
      (List.filter (fun e -> not e.Tm_registry.faulty) Tm_registry.all)
  in
  let sample_history = Tm_workloads.Random_workload.generate ~seed:3 () in
  let t_drf =
    Test.make ~name:"checker/drf"
      (Staged.stage (fun () ->
           Sys.opaque_identity
             (Tm_relations.Race.is_drf_history sample_history)))
  in
  let t_opacity =
    Test.make ~name:"checker/strong-opacity"
      (Staged.stage (fun () ->
           Sys.opaque_identity
             (Tm_opacity.Checker.is_opaque
                (Tm_opacity.Checker.check_canonical sample_history))))
  in
  (* relation-engine benchmarks: the closure-based acyclicity the
     checkers used to pay on every candidate graph vs the early-exit
     DFS, plus the single-source reachability query *)
  let module Rel = Tm_relations.Rel in
  let rel_n = 96 in
  let rel_dag =
    let r = Rel.create rel_n in
    (* a spine plus random forward edges: connected, acyclic *)
    for i = 0 to rel_n - 2 do
      Rel.add r i (i + 1)
    done;
    let st = Random.State.make [| 0xbeef |] in
    for _ = 1 to rel_n * 4 do
      let i = Random.State.int st rel_n and j = Random.State.int st rel_n in
      if i < j then Rel.add r i j
    done;
    r
  in
  let rel_cyclic =
    let r = Rel.copy rel_dag in
    Rel.add r (rel_n - 1) 0;
    r
  in
  let t_closure =
    Test.make ~name:"rel/transitive-closure"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Rel.transitive_closure rel_dag)))
  in
  let t_acyclic_closure =
    Test.make ~name:"rel/is-acyclic-closure"
      (Staged.stage (fun () ->
           Sys.opaque_identity
             (Rel.is_irreflexive (Rel.transitive_closure rel_dag))))
  in
  let t_acyclic_dfs =
    Test.make ~name:"rel/is-acyclic-dfs"
      (Staged.stage (fun () -> Sys.opaque_identity (Rel.is_acyclic rel_dag)))
  in
  let t_acyclic_dfs_cyclic =
    Test.make ~name:"rel/is-acyclic-dfs-cyclic"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Rel.is_acyclic rel_cyclic)))
  in
  let t_reachable =
    Test.make ~name:"rel/reachable"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Rel.reachable rel_dag 0 (rel_n - 1))))
  in
  let t_relations_of_history =
    Test.make ~name:"relations/of-history"
      (Staged.stage (fun () ->
           Sys.opaque_identity
             (Tm_relations.Relations.of_history sample_history)))
  in
  let t_monitor =
    Test.make ~name:"monitor/check"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Tm_opacity.Monitor.check sample_history)))
  in
  let tests =
    Test.make_grouped ~name:"tm"
      (entry_tests
      @ [
          t_drf; t_opacity; t_closure; t_acyclic_closure; t_acyclic_dfs;
          t_acyclic_dfs_cyclic; t_reachable; t_relations_of_history;
          t_monitor;
        ])
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    let raw_results = Benchmark.all cfg instances tests in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw_results) instances
    in
    let results = Analyze.merge ols instances results in
    results
  in
  let results = benchmark () in
  let estimates = ref [] in
  Hashtbl.iter
    (fun _instance tbl ->
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> estimates := (name, est) :: !estimates
          | _ -> Printf.printf "  %-32s (no estimate)\n%!" name)
        tbl)
    results;
  let estimates = List.sort compare !estimates in
  List.iter
    (fun (name, est) -> Printf.printf "  %-36s %12.1f ns/run\n%!" name est)
    estimates;
  if !json_mode then
    write_json "BENCH_relations.json"
      (J.Obj
         [
           ("schema", J.String "bench/relations/v1");
           ("generated_by", J.String "bench/main.exe micro --json");
           ("cores", J.Int (Domain.recommended_domain_count ()));
           ("unit", J.String "ns/run");
           ( "results",
             J.Arr
               (List.map
                  (fun (name, est) ->
                    J.Obj
                      [ ("name", J.String name); ("ns_per_run", J.Float est) ])
                  estimates) );
         ]);
  harness_bench ();
  obs_bench ();
  tl2_bench ()

(* ------------------------------ main ------------------------------- *)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
    ("recorder", recorder_bench); ("obs", obs_bench); ("tl2", tl2_bench);
    ("micro", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, names =
    List.partition (fun a -> String.length a >= 2 && String.sub a 0 2 = "--") args
  in
  List.iter
    (function
      | "--json" -> json_mode := true
      | f ->
          Printf.eprintf "unknown flag %s (have: --json)\n" f;
          exit 2)
    flags;
  let requested =
    match names with [] -> List.map fst experiments | names -> names
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %s (have: %s)\n" name
            (String.concat " " (List.map fst experiments));
          exit 2)
    requested;
  Printf.printf "\ntotal time: %.1fs\n" (Unix.gettimeofday () -. t0)
