(* Robustness tests: memory limits, the reclaim cascade, fault injection,
   free-path hardening, heap audits, and fault-schedule determinism. *)

open Wsc_substrate
module Topology = Wsc_hw.Topology
module Vm = Wsc_os.Vm
module Fault = Wsc_os.Fault
module Config = Wsc_tcmalloc.Config
module Size_class = Wsc_tcmalloc.Size_class
module Malloc = Wsc_tcmalloc.Malloc
module Backend = Wsc_backend.Backend
module Telemetry = Wsc_tcmalloc.Telemetry
module Audit = Wsc_tcmalloc.Audit
module Per_cpu_cache = Wsc_tcmalloc.Per_cpu_cache
module Transfer_cache = Wsc_tcmalloc.Transfer_cache
module Pageheap = Wsc_tcmalloc.Pageheap
module Span = Wsc_tcmalloc.Span
module Apps = Wsc_workload.Apps
module Driver = Wsc_workload.Driver
module Machine = Wsc_fleet.Machine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let mib = 1024 * 1024

let make_malloc () =
  let clock = Clock.create () in
  let m = Malloc.create ~topology:Topology.uniprocessor ~clock () in
  (clock, m)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* Run [f], expecting an [Invalid_argument] whose message mentions every
   given fragment (messages embed addresses, so exact matching is out). *)
let expect_free_error fragments f =
  match f () with
  | () ->
    Alcotest.failf "expected Invalid_argument mentioning %s"
      (String.concat ", " fragments)
  | exception Invalid_argument msg ->
    List.iter
      (fun frag ->
        check_bool (Printf.sprintf "%S in %S" frag msg) true (contains msg frag))
      fragments

(* {1 Hardened free error paths} *)

let test_double_free_cached_tier () =
  let _, m = make_malloc () in
  let a = Malloc.malloc m ~cpu:0 ~size:128 in
  Malloc.free m ~cpu:0 a ~size:128;
  (* The object sits in the per-CPU cache: the span still counts it
     outstanding, so only its cached mark in the span can catch this. *)
  expect_free_error [ "double free"; "tier=front-end"; Printf.sprintf "addr=0x%x" a ]
    (fun () -> Malloc.free m ~cpu:0 a ~size:128)

let test_double_free_span_tier () =
  let _, m = make_malloc () in
  let keep = Malloc.malloc m ~cpu:0 ~size:128 in
  let a = Malloc.malloc m ~cpu:0 ~size:128 in
  Malloc.free m ~cpu:0 a ~size:128;
  (* Drain the caches so the object returns to its span ([keep] pins the
     span in the central free list), then free it again. *)
  ignore (Malloc.release_memory m ~target_bytes:(64 * mib));
  expect_free_error [ "double free"; "tier=central-free-list" ] (fun () ->
      Malloc.free m ~cpu:0 a ~size:128);
  Malloc.free m ~cpu:0 keep ~size:128

(* An object that overflowed the per-CPU cache sits in the transfer
   cache; freeing it again is still a front-end double free. *)
let test_double_free_transfer_tier () =
  let _, m = make_malloc () in
  let addrs = List.init 4000 (fun _ -> Malloc.malloc m ~cpu:0 ~size:128) in
  List.iter (fun a -> Malloc.free m ~cpu:0 a ~size:128) addrs;
  let in_transfer = ref [] in
  Transfer_cache.iter_addrs (Malloc.transfer_cache m) (fun ~cls:_ a ->
      in_transfer := a :: !in_transfer);
  match !in_transfer with
  | [] -> Alcotest.fail "no freed object overflowed into the transfer cache"
  | a :: _ ->
    expect_free_error [ "double free"; "tier=front-end"; Printf.sprintf "addr=0x%x" a ]
      (fun () -> Malloc.free m ~cpu:0 a ~size:128)

(* A freed object drains home, its span goes idle and returns to the
   pageheap, and another size class re-carves the same pages.  A second
   free of the old address under its old size is a class mismatch against
   the new span. *)
let test_double_free_recarved_span () =
  let clock, m = make_malloc () in
  let pageheap = Malloc.pageheap m in
  (* [pin] keeps the hugepage in the filler once [a]'s span leaves it. *)
  let pin = Malloc.malloc m ~cpu:0 ~size:4096 in
  let a = Malloc.malloc m ~cpu:0 ~size:128 in
  Malloc.free m ~cpu:0 a ~size:128;
  Malloc.cpu_idle ~flush:true m ~cpu:0;
  ignore (Transfer_cache.drain (Malloc.transfer_cache m) ~now:(Clock.now clock));
  check_bool "span returned to the pageheap" true (Pageheap.span_of_addr pageheap a = None);
  let rec carve n =
    if Pageheap.span_of_addr pageheap a = None && n > 0 then begin
      ignore (Malloc.malloc m ~cpu:0 ~size:1024);
      carve (n - 1)
    end
  in
  carve 1000;
  let span =
    match Pageheap.span_of_addr pageheap a with
    | Some span -> span
    | None -> Alcotest.fail "no span re-carved the freed pages"
  in
  check_int "re-carved by the 1 KiB class" (Size_class.index_of_size 1024)
    span.Span.size_class;
  let expected =
    Printf.sprintf
      "Malloc.free: size mismatch: class %d given, span holds class %d (addr=0x%x, size=128, \
       tier=central-free-list)"
      (Size_class.index_of_size 128) (Size_class.index_of_size 1024) a
  in
  Alcotest.check_raises "parent message" (Invalid_argument expected) (fun () ->
      Malloc.free m ~cpu:0 a ~size:128);
  Malloc.free m ~cpu:0 pin ~size:4096

let test_wrong_class_free () =
  let _, m = make_malloc () in
  let a = Malloc.malloc m ~cpu:0 ~size:128 in
  expect_free_error [ "size mismatch"; "tier=central-free-list" ] (fun () ->
      Malloc.free m ~cpu:0 a ~size:4096)

let test_misaligned_free () =
  let _, m = make_malloc () in
  let a = Malloc.malloc m ~cpu:0 ~size:128 in
  expect_free_error [ "misaligned free"; Printf.sprintf "addr=0x%x" (a + 1) ] (fun () ->
      Malloc.free m ~cpu:0 (a + 1) ~size:128)

let test_small_free_of_large_alloc () =
  let _, m = make_malloc () in
  let a = Malloc.malloc m ~cpu:0 ~size:mib in
  expect_free_error [ "size mismatch"; "large" ] (fun () ->
      Malloc.free m ~cpu:0 a ~size:128)

let test_large_free_errors () =
  let _, m = make_malloc () in
  let a = Malloc.malloc m ~cpu:0 ~size:mib in
  expect_free_error [ "size mismatch"; "page count" ] (fun () ->
      Malloc.free m ~cpu:0 a ~size:(2 * mib));
  expect_free_error [ "misaligned free"; "interior" ] (fun () ->
      Malloc.free m ~cpu:0 (a + Units.tcmalloc_page_size) ~size:mib);
  Malloc.free m ~cpu:0 a ~size:mib;
  (* The span left the page map when it was freed: a second free of the
     same region is indistinguishable from a wild pointer. *)
  expect_free_error [ "wild pointer" ] (fun () -> Malloc.free m ~cpu:0 a ~size:mib)

let prop_double_free_detected =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"double_free_always_detected" ~count:40
       QCheck.(triple (int_range 1 40) (int_range 8 4096) bool)
       (fun (n, size, drain_first) ->
         let _, m = make_malloc () in
         let addrs = List.init n (fun _ -> Malloc.malloc m ~cpu:0 ~size) in
         List.iter (fun a -> Malloc.free m ~cpu:0 a ~size) addrs;
         (* Optionally push everything back through the cascade so the
            second frees hit span/pageheap tiers instead of the caches. *)
         if drain_first then ignore (Malloc.release_memory m ~target_bytes:(256 * mib));
         List.for_all
           (fun a ->
             match Malloc.free m ~cpu:0 a ~size with
             | () -> false
             | exception Invalid_argument _ -> true)
           addrs))

let prop_wrong_size_free_detected =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"wrong_size_free_detected" ~count:60
       QCheck.(pair (int_range 8 300_000) (int_range 8 300_000))
       (fun (s1, s2) ->
         (* Only pairs that round to different size classes are erroneous. *)
         if Size_class.of_size s1 = Size_class.of_size s2 then true
         else begin
           let _, m = make_malloc () in
           let a = Malloc.malloc m ~cpu:0 ~size:s1 in
           match Malloc.free m ~cpu:0 a ~size:s2 with
           | () -> false
           | exception Invalid_argument _ -> true
         end))

(* {1 Reclaim cascade} *)

let test_release_memory_cascade () =
  let _, m = make_malloc () in
  (* Several spans' worth of small objects; free most, keep a few live so
     the backing hugepage stays partially used (subrelease, not unmap). *)
  let addrs = List.init 400 (fun _ -> Malloc.malloc m ~cpu:0 ~size:128) in
  let live = List.filteri (fun i _ -> i < 40) addrs in
  let dead = List.filteri (fun i _ -> i >= 40) addrs in
  List.iter (fun a -> Malloc.free m ~cpu:0 a ~size:128) dead;
  let tel = Malloc.telemetry m in
  let resident_before = (Malloc.heap_stats m).Malloc.resident_bytes in
  let o = Malloc.release_memory m ~target_bytes:(64 * mib) in
  check_bool "front-end drained" true (o.Malloc.front_end_bytes > 0);
  check_bool "transfer drained" true (o.Malloc.transfer_bytes > 0);
  check_bool "idle spans returned" true (o.Malloc.cfl_span_bytes > 0);
  check_bool "bytes released to OS" true (o.Malloc.os_released_bytes > 0);
  check_int "front-end empty after drain" 0
    (Per_cpu_cache.cached_bytes (Malloc.per_cpu_caches m));
  check_bool "resident shrank" true
    ((Malloc.heap_stats m).Malloc.resident_bytes < resident_before);
  (* Telemetry mirrors the outcome. *)
  check_int "tier telemetry: front-end" o.Malloc.front_end_bytes
    (Telemetry.reclaimed_bytes tel Telemetry.Front_end);
  check_int "tier telemetry: transfer" o.Malloc.transfer_bytes
    (Telemetry.reclaimed_bytes tel Telemetry.Transfer);
  check_int "tier telemetry: cfl" o.Malloc.cfl_span_bytes
    (Telemetry.reclaimed_bytes tel Telemetry.Cfl_spans);
  check_int "tier telemetry: os" o.Malloc.os_released_bytes
    (Telemetry.reclaimed_bytes tel Telemetry.Os_release);
  check_int "one reclaim event" 1 (Telemetry.reclaim_events tel);
  (* A non-positive target is a recorded no-op. *)
  let z = Malloc.release_memory m ~target_bytes:0 in
  check_int "zero target reclaims nothing" 0
    (z.Malloc.front_end_bytes + z.Malloc.transfer_bytes + z.Malloc.cfl_span_bytes
   + z.Malloc.os_released_bytes);
  check_int "zero target records no event" 1 (Telemetry.reclaim_events tel);
  List.iter (fun a -> Malloc.free m ~cpu:0 a ~size:128) live

let test_release_skips_drains_when_backlog_suffices () =
  let _, m = make_malloc () in
  (* Populate the per-CPU cache... *)
  let small = List.init 50 (fun _ -> Malloc.malloc m ~cpu:0 ~size:256) in
  List.iter (fun a -> Malloc.free m ~cpu:0 a ~size:256) small;
  let cached_before = Per_cpu_cache.cached_bytes (Malloc.per_cpu_caches m) in
  check_bool "cache populated" true (cached_before > 0);
  (* ...and give the pageheap a large releasable backlog. *)
  let big = Malloc.malloc m ~cpu:0 ~size:(4 * mib) in
  Malloc.free m ~cpu:0 big ~size:(4 * mib);
  let o = Malloc.release_memory m ~target_bytes:mib in
  check_int "front-end untouched" 0 o.Malloc.front_end_bytes;
  check_int "transfer untouched" 0 o.Malloc.transfer_bytes;
  check_int "hot caches preserved" cached_before
    (Per_cpu_cache.cached_bytes (Malloc.per_cpu_caches m))

let test_oom_after_exhausted_retries () =
  let _, m = make_malloc () in
  let vm = Malloc.vm m in
  Vm.set_hard_limit vm (Some Units.hugepage_size);
  (* A 4 MiB span needs two hugepages: no amount of reclaim helps. *)
  check_bool "OOM surfaces" true
    (try
       ignore (Malloc.malloc m ~cpu:0 ~size:(4 * mib));
       false
     with Stdlib.Out_of_memory -> true);
  let tel = Malloc.telemetry m in
  let retries = (Malloc.config m).Config.reclaim_retries in
  check_int "every retry consumed" retries (Telemetry.reclaim_retries tel);
  check_int "one OOM recorded" 1 (Telemetry.oom_events tel);
  check_bool "limit failures counted" true (Vm.limit_mmap_failures vm > retries)

let test_transient_burst_survival () =
  let _, m = make_malloc () in
  let vm = Malloc.vm m in
  let remaining = ref 2 in
  Vm.set_fault_hook vm
    (Some
       (fun ~bytes:_ ->
         if !remaining > 0 then begin
           decr remaining;
           true
         end
         else false));
  (* Two consecutive mmap refusals stay within the retry budget. *)
  let a = Malloc.malloc m ~cpu:0 ~size:mib in
  check_bool "allocation survived the burst" true (a > 0);
  let tel = Malloc.telemetry m in
  check_int "two retries" 2 (Telemetry.reclaim_retries tel);
  check_int "no OOM" 0 (Telemetry.oom_events tel);
  check_int "failures recorded" 2 (Vm.transient_mmap_failures vm)

let test_soft_limit_watchdog () =
  let clock, m = make_malloc () in
  let addrs = List.init 300 (fun _ -> Malloc.malloc m ~cpu:0 ~size:512) in
  List.iter (fun a -> Malloc.free m ~cpu:0 a ~size:512) addrs;
  Vm.set_soft_limit (Malloc.vm m) (Some 1);
  let tel = Malloc.telemetry m in
  check_int "no reclaim yet" 0 (Telemetry.reclaim_events tel);
  Clock.advance clock (2.0 *. (Malloc.config m).Config.soft_limit_check_interval_ns);
  check_bool "watchdog ran the cascade" true (Telemetry.reclaim_events tel > 0);
  check_int "caches drained" 0 (Per_cpu_cache.cached_bytes (Malloc.per_cpu_caches m))

(* {1 Heap auditor} *)

let test_audit_clean () =
  let _, m = make_malloc () in
  check_bool "empty heap is clean" true (Audit.is_clean (Audit.run m));
  let addrs = List.init 200 (fun i -> Malloc.malloc m ~cpu:0 ~size:(64 + (i mod 7 * 512))) in
  let big = Malloc.malloc m ~cpu:0 ~size:(3 * mib) in
  let r = Audit.run m in
  check_bool "live heap is clean" true (Audit.is_clean r);
  check_bool "spans walked" true (r.Audit.spans_walked > 0);
  check_bool "hugepages walked" true (r.Audit.hugepages_walked > 0);
  List.iteri (fun i a -> Malloc.free m ~cpu:0 a ~size:(64 + (i mod 7 * 512))) addrs;
  Malloc.free m ~cpu:0 big ~size:(3 * mib);
  ignore (Malloc.release_memory m ~target_bytes:(256 * mib));
  check_bool "clean after full reclaim" true (Audit.is_clean (Audit.run m))

let test_audit_reports_hard_limit_breach () =
  let _, m = make_malloc () in
  ignore (Malloc.malloc m ~cpu:0 ~size:mib);
  (* Install a limit below current residency: the auditor must report it
     as a structured violation, not assert. *)
  Vm.set_hard_limit (Malloc.vm m) (Some 1);
  let r = Audit.run m in
  check_bool "violation reported" false (Audit.is_clean r);
  check_bool "named check" true
    (List.exists (fun v -> v.Audit.check = "hard-limit") r.Audit.violations);
  check_bool "printable" true (contains (Audit.to_string r) "hard-limit")

(* A cached object whose span slot lost its cached mark, and a held
   object that gained one, each break the cached-mark census. *)
let test_audit_reports_torn_cached_mark () =
  let _, m = make_malloc () in
  let span_of a = Option.get (Pageheap.span_of_addr (Malloc.pageheap m) a) in
  let census r =
    List.filter (fun v -> v.Audit.check = "cached-mark-census") r.Audit.violations
  in
  let keep = Malloc.malloc m ~cpu:0 ~size:256 in
  let a = Malloc.malloc m ~cpu:0 ~size:256 in
  Malloc.free m ~cpu:0 a ~size:256;
  check_int "clean census" 0 (List.length (census (Audit.run m)));
  Span.mark_held (span_of a) a;
  let torn = census (Audit.run m) in
  check_int "unmarked address and count mismatch" 2 (List.length torn);
  check_bool "names the address" true
    (List.exists (fun v -> contains v.Audit.detail (Printf.sprintf "0x%x" a)) torn);
  Span.mark_cached (span_of a) a;
  check_int "mark restored" 0 (List.length (census (Audit.run m)));
  Span.mark_cached (span_of keep) keep;
  check_int "stray mark on a held object" 1 (List.length (census (Audit.run m)))

(* {1 Integration: survival under limits and faults} *)

let pressure_fault_config =
  {
    Fault.seed = 5;
    mmap_failure_rate = 0.02;
    mmap_failure_burst = 2;
    pressure_period_ns = 1.5 *. Units.sec;
    pressure_duration_ns = 0.4 *. Units.sec;
    pressure_bytes = 16 * mib;
    cpu_churn_period_ns = Units.sec;
  }

let test_memory_pressure_survival () =
  let hard = 512 * mib in
  let machine =
    Machine.create ~seed:7 ~soft_limit_bytes:(64 * mib) ~hard_limit_bytes:hard
      ~faults:pressure_fault_config ~audit_interval_ns:(0.5 *. Units.sec)
      ~platform:Topology.default
      ~jobs:[ Apps.by_name "redis" ]
      ()
  in
  Machine.run machine ~duration_ns:(3.0 *. Units.sec) ~epoch_ns:Units.ms;
  let job = List.hd (Machine.jobs machine) in
  let tel = Backend.telemetry job.Machine.backend in
  let vm = Backend.vm job.Machine.backend in
  (* The run completed: transient faults were absorbed, no OOM. *)
  check_bool "made progress" true (Driver.allocations job.Machine.driver > 10_000);
  check_bool "faults were injected" true (Vm.transient_mmap_failures vm > 0);
  check_int "no OOM" 0 (Telemetry.oom_events tel);
  (* The tight soft limit forced the cascade through every tier. *)
  check_bool "reclaim ran" true (Telemetry.reclaim_events tel > 0);
  List.iter
    (fun tier ->
      check_bool
        (Printf.sprintf "tier %s reclaimed bytes" (Telemetry.reclaim_tier_name tier))
        true
        (Telemetry.reclaimed_bytes tel tier > 0))
    Telemetry.all_reclaim_tiers;
  (* Residency stayed under the hard limit throughout. *)
  check_bool "peak RSS under hard limit" true
    (Driver.peak_rss_bytes job.Machine.driver <= hard);
  (* The heap stayed structurally consistent at every audit point. *)
  check_bool "audits taken" true (Driver.audit_reports job.Machine.driver <> []);
  check_int "zero audit violations" 0 (Driver.audit_violations job.Machine.driver)

(* {1 Determinism under a fault schedule} *)

type signature = {
  stats : Malloc.heap_stats;
  allocs : int;
  frees : int;
  requests : float;
  mmap_failures : int;
  transient : int;
  limit : int;
  reclaim_events : int;
  reclaim_retries : int;
  oom : int;
  reclaimed : int list;
  injected : int;
  audits : int;
  violations : int;
}

let run_signature () =
  let machine =
    Machine.create ~seed:11 ~soft_limit_bytes:(96 * mib) ~hard_limit_bytes:(512 * mib)
      ~faults:pressure_fault_config ~audit_interval_ns:Units.sec
      ~platform:Topology.default
      ~jobs:[ Apps.by_name "redis" ]
      ()
  in
  Machine.run machine ~duration_ns:(2.0 *. Units.sec) ~epoch_ns:Units.ms;
  let job = List.hd (Machine.jobs machine) in
  let tel = Backend.telemetry job.Machine.backend in
  let vm = Backend.vm job.Machine.backend in
  {
    stats = Backend.heap_stats job.Machine.backend;
    allocs = Telemetry.alloc_count tel;
    frees = Telemetry.free_count tel;
    requests = Driver.requests_completed job.Machine.driver;
    mmap_failures = Vm.mmap_failures vm;
    transient = Vm.transient_mmap_failures vm;
    limit = Vm.limit_mmap_failures vm;
    reclaim_events = Telemetry.reclaim_events tel;
    reclaim_retries = Telemetry.reclaim_retries tel;
    oom = Telemetry.oom_events tel;
    reclaimed =
      List.map (Telemetry.reclaimed_bytes tel) Telemetry.all_reclaim_tiers;
    injected = (match job.Machine.fault with Some f -> Fault.injected_failures f | None -> -1);
    audits = List.length (Driver.audit_reports job.Machine.driver);
    violations = Driver.audit_violations job.Machine.driver;
  }

let test_fault_schedule_determinism () =
  let a = run_signature () in
  let b = run_signature () in
  check_bool "faults actually fired" true (a.injected > 0);
  check_bool "reclaim actually ran" true (a.reclaim_events > 0);
  check_bool "bit-identical heap stats and telemetry" true (a = b)

let suite =
  [
    ( "free_hardening",
      [
        Alcotest.test_case "double free in cache tier" `Quick test_double_free_cached_tier;
        Alcotest.test_case "double free in span tier" `Quick test_double_free_span_tier;
        Alcotest.test_case "double free in transfer tier" `Quick test_double_free_transfer_tier;
        Alcotest.test_case "double free after re-carving" `Quick test_double_free_recarved_span;
        Alcotest.test_case "wrong class" `Quick test_wrong_class_free;
        Alcotest.test_case "misaligned" `Quick test_misaligned_free;
        Alcotest.test_case "small free of large alloc" `Quick test_small_free_of_large_alloc;
        Alcotest.test_case "large free errors" `Quick test_large_free_errors;
        prop_double_free_detected;
        prop_wrong_size_free_detected;
      ] );
    ( "reclaim",
      [
        Alcotest.test_case "cascade drains every tier" `Quick test_release_memory_cascade;
        Alcotest.test_case "backlog skips cache drains" `Quick
          test_release_skips_drains_when_backlog_suffices;
        Alcotest.test_case "oom after exhausted retries" `Quick
          test_oom_after_exhausted_retries;
        Alcotest.test_case "transient burst survival" `Quick test_transient_burst_survival;
        Alcotest.test_case "soft limit watchdog" `Quick test_soft_limit_watchdog;
      ] );
    ( "audit",
      [
        Alcotest.test_case "clean heaps stay clean" `Quick test_audit_clean;
        Alcotest.test_case "hard limit breach reported" `Quick
          test_audit_reports_hard_limit_breach;
        Alcotest.test_case "torn cached mark reported" `Quick
          test_audit_reports_torn_cached_mark;
      ] );
    ( "pressure_integration",
      [
        Alcotest.test_case "survival under limits and faults" `Slow
          test_memory_pressure_survival;
        Alcotest.test_case "fault schedule determinism" `Slow
          test_fault_schedule_determinism;
      ] );
  ]
