(* Golden digests: bit-identity oracle over pinned seeds.  Each case
   reduces a deterministic run to a text payload and compares its MD5
   against the digest committed below.  A refactor that keeps behaviour
   bit-identical leaves every digest alone; a deliberate behaviour change
   must update the table (the failure message prints the new digest) and
   say why in CHANGES.md.

   Cases: one two-job machine, a 6-machine fleet, raw distribution
   streams, a drained driver's counters, the three `bench rseq` arms
   (shortened), a high-preemption rseq machine, a two-job rseq machine
   with faults, an 8-machine fleet at one and two domains, and a recorded
   tensorflow stream replayed on each backend. *)

open Wsc_substrate
module Machine = Wsc_fleet.Machine
module Fleet = Wsc_fleet.Fleet
module Apps = Wsc_workload.Apps
module Profile = Wsc_workload.Profile
module Driver = Wsc_workload.Driver
module Topology = Wsc_hw.Topology
module Backend = Wsc_backend.Backend
module Telemetry = Wsc_tcmalloc.Telemetry
module Config = Wsc_tcmalloc.Config
module Rseq = Wsc_os.Rseq
module Fault = Wsc_os.Fault
module Vm = Wsc_os.Vm
module Audit = Wsc_tcmalloc.Audit
module Malloc = Wsc_tcmalloc.Malloc
module Cost_model = Wsc_hw.Cost_model
module Recorder = Wsc_trace.Recorder
module Replay = Wsc_trace.Replay
module Writer = Wsc_trace.Writer

let expected =
  [
    ("machine", "d536cd6ddf45df1a9e922d2eb55fb329");
    ("fleet6", "67b34ebadecc411c385a744f1a430777");
    ("dist-stream", "3153f6263f76b00e7d08a2147c71a32a");
    ("post-drain", "881ba0a508929f70746b44cf50ce9a20");
    ("rseq-churn-off", "ad35bed3feb48b7967a24f33bae8fd37");
    ("rseq-paper-default", "0a46989fc9690a0bf4fb03b624bed18f");
    ("rseq-extreme", "4e3ec4bfa651d0072f788c640f10c272");
    ("rseq-preempt-0.3", "ac7b26a63d27eea85e5929b2619a5274");
    ("rseq-two-job-faults", "0014a7e9e577554c81f9bd800c733543");
    ("fleet8", "b164d7f245888dec7f8a2987a47fd819");
    ("replay-tcmalloc", "a1ba43d30577b4786b3989e4a57ba842");
    ("replay-rpmalloc", "dd1eb378cc7503adea65faa8c500238c");
    ("replay-jemalloc", "53d7943a9327f2d0335a7f3bc55e9113");
  ]

let check name payload =
  let got = Digest.to_hex (Digest.string payload) in
  let want = List.assoc name expected in
  if got <> want then
    Alcotest.failf "golden %s: digest %s, committed %s\npayload:\n%s" name got want payload

let digests summaries =
  String.concat "\n" (List.map (fun s -> Digest.to_hex s.Machine.sm_digest) summaries)

(* The two-job reference machine; [post-drain] keeps draining it. *)
let reference_machine =
  lazy
    (let m =
       Machine.create ~seed:42 ~platform:Topology.default
         ~jobs:[ Apps.fleet; Apps.monarch ] ()
     in
     Machine.run m ~duration_ns:(3.0 *. Units.sec) ~epoch_ns:Units.ms;
     (m, Machine.summary m))

let test_machine () =
  let _, s = Lazy.force reference_machine in
  check "machine" (Digest.to_hex s.Machine.sm_digest)

let test_fleet6 () =
  let f = Fleet.create ~seed:7 ~num_machines:6 ~num_binaries:50 () in
  check "fleet6" (digests (Fleet.run f ~jobs:1 ~duration_ns:(0.5 *. Units.sec) ~epoch_ns:Units.ms))

let test_dist_stream () =
  let rng = Rng.create 99 in
  let buf = Buffer.create 4096 in
  for _ = 1 to 2000 do
    Buffer.add_string buf
      (Printf.sprintf "%d %d %h %h\n"
         (Dist.zipf rng ~n:50 ~s:0.9)
         (Dist.categorical rng Fleet.platform_mix)
         (Dist.sample Profile.fleet_size_dist rng)
         (Profile.sample_lifetime Apps.fleet rng ~size:512))
  done;
  check "dist-stream" (Buffer.contents buf)

let test_post_drain () =
  let m, _ = Lazy.force reference_machine in
  let job = List.hd (Machine.jobs m) in
  Driver.drain job.Machine.driver;
  check "post-drain"
    (Printf.sprintf "live %d allocs %d"
       (Driver.live_objects job.Machine.driver)
       (Driver.allocations job.Machine.driver))

(* An rseq machine's payload: the summary digest, then per job the
   injector's stats and the telemetry rseq counters. *)
let rseq_payload m =
  let job_line (job : Machine.job) =
    let tel = Backend.telemetry job.Machine.backend in
    let st = Rseq.stats (Option.get (Backend.rseq job.Machine.backend)) in
    Printf.sprintf
      "ops %d committed %d restarts %d fallbacks %d forced %d | tel restarts %d \
       fallbacks %d stranded %d"
      st.Rseq.ops st.Rseq.committed st.Rseq.restarts st.Rseq.fallbacks
      st.Rseq.forced_aborts (Telemetry.rseq_restarts tel) (Telemetry.rseq_fallbacks tel)
      (Telemetry.stranded_reclaim_bytes tel)
  in
  String.concat "\n"
    (Digest.to_hex (Machine.summary m).Machine.sm_digest
    :: List.map job_line (Machine.jobs m))

let rseq_machine ~seed ?faults ~preempt_prob ~jobs ~duration_s () =
  let rseq =
    { Rseq.seed; preempt_prob; max_restarts = Config.baseline.Config.rseq_max_restarts }
  in
  let m = Machine.create ~seed ?faults ~rseq ~platform:Topology.default ~jobs () in
  Machine.run m ~duration_ns:(duration_s *. Units.sec) ~epoch_ns:Units.ms;
  rseq_payload m

(* The `bench rseq` arms at a 3 s horizon. *)
let bench_rseq_arm name ~churn_period ~preempt_prob () =
  let faults =
    Option.map
      (fun period -> { Fault.no_faults with Fault.seed = 42; cpu_churn_period_ns = period })
      churn_period
  in
  check name
    (rseq_machine ~seed:42 ?faults ~preempt_prob ~jobs:[ Apps.search_middle_tier ]
       ~duration_s:3.0 ())

(* `simulate --app monarch --duration 3 --rseq --preempt-prob 0.3`: a
   third of operations exhaust the restart budget, so the fallback
   branches of every fast path and slow path run constantly. *)
let test_rseq_high_preemption () =
  check "rseq-preempt-0.3"
    (rseq_machine ~seed:1 ~preempt_prob:0.3 ~jobs:[ Apps.monarch ] ~duration_s:3.0 ())

(* Two co-located rseq processes with mmap faults, pressure spikes and
   CPU churn (the `simulate --faults` schedule). *)
let test_rseq_two_job_faults () =
  let faults =
    {
      Fault.seed = 5;
      mmap_failure_rate = 0.0001;
      mmap_failure_burst = 2;
      pressure_period_ns = 5.0 *. Units.sec;
      pressure_duration_ns = Units.sec;
      pressure_bytes = 64 * 1024 * 1024;
      cpu_churn_period_ns = 1.0 *. Units.sec;
    }
  in
  check "rseq-two-job-faults"
    (rseq_machine ~seed:5 ~faults ~preempt_prob:0.01 ~jobs:[ Apps.fleet; Apps.monarch ]
       ~duration_s:3.0 ())

let test_fleet8 ~jobs () =
  let f = Fleet.create ~seed:7 ~num_machines:8 () in
  check "fleet8" (digests (Fleet.run f ~jobs ~duration_ns:(0.5 *. Units.sec) ~epoch_ns:Units.ms))

(* A 10 s tensorflow stream recorded through Driver + Recorder, shared by
   the three replay cases. *)
let tensorflow_stream =
  lazy
    (let path = Filename.temp_file "wsc_golden" ".wtrace" in
     Fun.protect
       ~finally:(fun () -> Sys.remove path)
       (fun () ->
         Writer.with_file path (fun writer ->
             ignore
               (Recorder.record_app ~seed:11 ~duration_ns:(10.0 *. Units.sec) ~writer
                  Apps.tensorflow));
         Replay.preload path))

(* The replay result, then the replayed allocator's audit violations,
   tier hits and VM call counts. *)
let test_replay kind () =
  let events = Lazy.force tensorflow_stream in
  let after = ref [] in
  let inspect backend =
    let tel = Backend.telemetry backend and vm = Backend.vm backend in
    let violations =
      List.map
        (fun v -> Printf.sprintf "violation %s: %s" v.Audit.check v.Audit.detail)
        (Backend.audit backend).Audit.violations
    in
    let hits =
      List.map
        (fun tier ->
          Printf.sprintf "hits %s %d" (Cost_model.tier_name tier) (Telemetry.hits tel tier))
        Cost_model.all_tiers
    in
    let calls =
      Printf.sprintf "vm mmap %d munmap %d subrelease %d reclaim %d" (Vm.mmap_calls vm)
        (Vm.munmap_calls vm) (Vm.subrelease_calls vm) (Vm.reclaim_calls vm)
    in
    after := violations @ hits @ [ calls ]
  in
  let r =
    Replay.run_preloaded ~config:(Config.with_backend kind Config.baseline) ~inspect events
  in
  let s = r.Replay.final_stats in
  let result =
    Printf.sprintf
      "allocations %d frees %d retires %d peak_rss %d malloc_ns %h\n\
       stats %d %d %d %d %d %d %d %d %d"
      r.Replay.allocations r.Replay.frees r.Replay.retires r.Replay.peak_rss_bytes
      r.Replay.malloc_ns s.Malloc.live_requested_bytes s.Malloc.live_rounded_bytes
      s.Malloc.front_end_cached_bytes s.Malloc.transfer_cached_bytes
      s.Malloc.cfl_fragmented_bytes s.Malloc.pageheap_fragmented_bytes
      s.Malloc.internal_fragmentation_bytes s.Malloc.external_fragmentation_bytes
      s.Malloc.resident_bytes
  in
  check ("replay-" ^ Backend.kind_name kind) (String.concat "\n" (result :: !after))

(* {1 Allocation budgets}

   Minor words are deterministic for a given build, so these are exact
   regression nets with headroom: a per-instance side table or an
   OCaml-heap map per replayed object shows up here at once. *)

let minor_words_of f =
  let before = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. before)

let test_malloc_create_budget () =
  let clock = Clock.create () in
  let _, words =
    minor_words_of (fun () -> Malloc.create ~topology:Topology.default ~clock ())
  in
  Printf.printf "Malloc.create: %.0f minor words\n" words;
  if words > 8_000.0 then Alcotest.failf "Malloc.create: %.0f minor words (budget 8000)" words

let test_replay_budget kind ~budget () =
  let events = Lazy.force tensorflow_stream in
  let config = Config.with_backend kind Config.baseline in
  let _, words = minor_words_of (fun () -> Replay.run_preloaded ~config events) in
  let per_op = words /. float_of_int (Array.length events) in
  Printf.printf "%s: %.2f minor words per op\n" (Backend.kind_name kind) per_op;
  if per_op > budget then
    Alcotest.failf "%s replay: %.2f minor words per op (budget %.0f)" (Backend.kind_name kind)
      per_op budget

let suite =
  [
    ( "alloc_budget",
      [
        Alcotest.test_case "Malloc.create" `Quick test_malloc_create_budget;
        Alcotest.test_case "tensorflow replay, tcmalloc" `Quick
          (test_replay_budget Backend.Tcmalloc ~budget:16.0);
        Alcotest.test_case "tensorflow replay, rpmalloc" `Quick
          (test_replay_budget Backend.Rpmalloc ~budget:15.0);
        Alcotest.test_case "tensorflow replay, jemalloc" `Quick
          (test_replay_budget Backend.Jemalloc ~budget:7.0);
      ] );
    ( "golden",
      [
        Alcotest.test_case "two-job machine" `Quick test_machine;
        Alcotest.test_case "6-machine fleet" `Quick test_fleet6;
        Alcotest.test_case "distribution streams" `Quick test_dist_stream;
        Alcotest.test_case "post-drain driver counters" `Quick test_post_drain;
        Alcotest.test_case "rseq churn-off arm" `Quick
          (bench_rseq_arm "rseq-churn-off" ~churn_period:None
             ~preempt_prob:Rseq.default_preempt_prob);
        Alcotest.test_case "rseq paper-default arm" `Quick
          (bench_rseq_arm "rseq-paper-default" ~churn_period:(Some (3.0 *. Units.sec))
             ~preempt_prob:Rseq.default_preempt_prob);
        Alcotest.test_case "rseq extreme arm" `Quick
          (bench_rseq_arm "rseq-extreme" ~churn_period:(Some (0.25 *. Units.sec))
             ~preempt_prob:0.02);
        Alcotest.test_case "rseq preempt-prob 0.3" `Quick test_rseq_high_preemption;
        Alcotest.test_case "rseq two-job machine with faults" `Quick
          test_rseq_two_job_faults;
        Alcotest.test_case "8-machine fleet, jobs 1" `Quick (test_fleet8 ~jobs:1);
        Alcotest.test_case "8-machine fleet, jobs 2" `Quick (test_fleet8 ~jobs:2);
        Alcotest.test_case "tensorflow replay, tcmalloc" `Quick
          (test_replay Backend.Tcmalloc);
        Alcotest.test_case "tensorflow replay, rpmalloc" `Quick
          (test_replay Backend.Rpmalloc);
        Alcotest.test_case "tensorflow replay, jemalloc" `Quick
          (test_replay Backend.Jemalloc);
      ] );
  ]
