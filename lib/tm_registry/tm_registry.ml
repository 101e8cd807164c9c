(* The TM registry: every TM implementation of the repo — fenced TL2
   (§7), its fault-injected variants, and the fence-free
   privatization-safe designs of §8 (NOrec, TLRW, global lock) — as a
   first-class module instance with capability metadata.  Drivers
   (tmcheck, bench, the sched harness, the conformance tests) select
   TMs by registry lookup instead of hand-rolled per-TM matches. *)

type window = {
  commit_delay : int;
  writeback_delay : int;
  delay_threads : int list option;
}

let no_window = { commit_delay = 0; writeback_delay = 0; delay_threads = None }

module type TM = sig
  module T : Tm_runtime.Tm_intf.S

  val make :
    ?recorder:Tm_runtime.Recorder.t ->
    ?window:window ->
    nregs:int ->
    nthreads:int ->
    unit ->
    T.t

  val stats : T.t -> int * int
  val snapshot : T.t -> Tm_obs.Obs.snapshot
end

type entry = {
  name : string;
  description : string;
  privatization_safe : bool;
  needs_fences : bool;
  fence_impls : string list;
  faulty : bool;
  faulty_variants : string list;
  has_windows : bool;
  tm : (module TM);
}

let check_policy entry policy =
  match policy with
  | Tm_runtime.Fence_policy.No_fences -> Ok ()
  | p when not entry.needs_fences ->
      Error
        (Printf.sprintf
           "%s is privatization-safe without fences; policy %s only adds \
            overhead"
           entry.name
           (Tm_runtime.Fence_policy.name p))
  | _ -> Ok ()

module type S = sig
  val all : entry list
  val names : string list
  val find : string -> entry option

  val find_exn : string -> entry
  (** Raises [Invalid_argument] naming every registered TM when the
      name is unknown. *)
end

module Make (Sch : Tm_runtime.Sched_intf.S) = struct
  module Tl2_i = Tl2.Make (Sch)
  module Tl2_legacy_i = Tl2.Legacy.Make (Sch)
  module Norec_i = Tm_baselines.Norec.Make (Sch)
  module Tlrw_i = Tm_baselines.Tlrw.Make (Sch)
  module Lock_i = Tm_baselines.Global_lock.Make (Sch)

  let tl2_faulty_variants =
    [ "tl2-no-read-validation"; "tl2-no-commit-validation" ]

  let tl2_entry ~name ~description ~variant ~fence_impl ~faulty =
    let module M = struct
      module T = Tl2_i

      let make ?recorder ?(window = no_window) ~nregs ~nthreads () =
        T.create_with ?recorder ~variant ~fence_impl
          ~commit_delay:window.commit_delay
          ~writeback_delay:window.writeback_delay
          ?delay_threads:window.delay_threads ~nregs ~nthreads ()

      let stats t = (T.stats_commits t, T.stats_aborts t)
      let snapshot t = Tm_obs.Obs.snapshot (T.obs t)
    end in
    {
      name;
      description;
      privatization_safe = false;
      needs_fences = true;
      fence_impls = [ "flag-scan"; "epoch" ];
      faulty;
      faulty_variants = (if faulty then [] else tl2_faulty_variants);
      has_windows = true;
      tm = (module M : TM);
    }

  (* The pre-overhaul Figure 9 implementation (two metadata words per
     register, boxed descriptors, FAA on every commit), kept first as
     the measured "before" of BENCH_tl2.json and second so figure
     experiments can be run against pseudocode-shaped TL2. *)
  let tl2_two_word_entry =
    let module M = struct
      module T = Tl2_legacy_i

      let make ?recorder ?(window = no_window) ~nregs ~nthreads () =
        T.create_with ?recorder ~variant:Tl2.Legacy.Normal
          ~fence_impl:Tl2.Legacy.Flag_scan ~commit_delay:window.commit_delay
          ~writeback_delay:window.writeback_delay
          ?delay_threads:window.delay_threads ~nregs ~nthreads ()

      let stats t = (T.stats_commits t, T.stats_aborts t)
      let snapshot t = Tm_obs.Obs.snapshot (T.obs t)
    end in
    {
      name = "tl2-two-word";
      description =
        "paper-shaped TL2 (Fig 9 two-word orecs; perf baseline for tl2)";
      privatization_safe = false;
      needs_fences = true;
      fence_impls = [ "flag-scan"; "epoch" ];
      faulty = false;
      faulty_variants = [];
      has_windows = true;
      tm = (module M : TM);
    }

  let norec_entry =
    let module M = struct
      module T = Norec_i

      let make ?recorder ?window:_ ~nregs ~nthreads () =
        T.create ?recorder ~nregs ~nthreads ()

      let stats t = (T.stats_commits t, T.stats_aborts t)
      let snapshot t = Tm_obs.Obs.snapshot (T.obs t)
    end in
    {
      name = "norec";
      description = "NOrec: sequence lock + value validation (fence-free)";
      privatization_safe = true;
      needs_fences = false;
      fence_impls = [];
      faulty = false;
      faulty_variants = [];
      has_windows = false;
      tm = (module M : TM);
    }

  let tlrw_entry =
    let module M = struct
      module T = Tlrw_i

      let make ?recorder ?window:_ ~nregs ~nthreads () =
        T.create_with ?recorder ~nregs ~nthreads ()

      let stats t = (T.stats_commits t, T.stats_aborts t)
      let snapshot t = Tm_obs.Obs.snapshot (T.obs t)
    end in
    {
      name = "tlrw";
      description =
        "TLRW: visible read/write locks, in-place + undo; aborts on \
         read-lock upgrade conflicts";
      privatization_safe = true;
      needs_fences = false;
      fence_impls = [];
      faulty = false;
      faulty_variants = [];
      has_windows = false;
      tm = (module M : TM);
    }

  let lock_entry =
    let module M = struct
      module T = Lock_i

      let make ?recorder ?window:_ ~nregs ~nthreads () =
        T.create ?recorder ~nregs ~nthreads ()

      let stats t = (T.stats_commits t, T.stats_aborts t)
      let snapshot t = Tm_obs.Obs.snapshot (T.obs t)
    end in
    {
      name = "lock";
      description = "global-lock TM: one lock per transaction (baseline)";
      privatization_safe = true;
      needs_fences = false;
      fence_impls = [];
      faulty = false;
      faulty_variants = [];
      has_windows = false;
      tm = (module M : TM);
    }

  let all =
    [
      tl2_entry ~name:"tl2"
        ~description:"TL2 with the paper's two-pass flag-scan fence (Fig 7)"
        ~variant:Tl2.Normal ~fence_impl:Tl2.Flag_scan ~faulty:false;
      tl2_entry ~name:"tl2-epoch"
        ~description:"TL2 with the RCU-style per-thread epoch fence"
        ~variant:Tl2.Normal ~fence_impl:Tl2.Epoch ~faulty:false;
      tl2_entry ~name:"tl2-no-read-validation"
        ~description:"fault-injected TL2: skips read-time validation"
        ~variant:Tl2.No_read_validation ~fence_impl:Tl2.Flag_scan ~faulty:true;
      tl2_entry ~name:"tl2-no-commit-validation"
        ~description:"fault-injected TL2: skips commit-time revalidation"
        ~variant:Tl2.No_commit_validation ~fence_impl:Tl2.Flag_scan
        ~faulty:true;
      tl2_two_word_entry;
      norec_entry;
      tlrw_entry;
      lock_entry;
    ]

  let names = List.map (fun e -> e.name) all
  let find name = List.find_opt (fun e -> e.name = name) all

  let find_exn name =
    match find name with
    | Some e -> e
    | None ->
        invalid_arg
          (Printf.sprintf "unknown TM %s (registered: %s)" name
             (String.concat ", " names))
end

include Make (Tm_runtime.Sched_intf.Os)
