(* Tests for the trace event vocabulary (the text line rendering `trace
   dump` prints) and the sampler's heap-profile estimator. *)

open Wsc_workload
module Sampler = Wsc_tcmalloc.Sampler

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_line_rendering () =
  List.iter
    (fun (ev, line) -> Alcotest.(check string) line line (Trace.line_of_event ev))
    [
      (Trace.Alloc { id = 1; size = 100; cpu = 0 }, "a 1 100 0");
      (Trace.Free { id = 1; cpu = 2 }, "f 1 2");
      (Trace.Advance { dt_ns = 1e6 }, "t 1000000");
      (* %.17g keeps floats with no short decimal form exact. *)
      (Trace.Advance { dt_ns = 0.1 +. 0.2 }, "t 0.30000000000000004");
      (Trace.Retire { cpu = 5; flush = true }, "r 5 1");
      (Trace.Retire { cpu = 0; flush = false }, "r 0 0");
    ]

(* {1 Sampler heap profiling} *)

let test_sampler_live_profile () =
  let s = Sampler.create ~period_bytes:1000 in
  (* Allocate 10 KB of 500 B objects: ~10 samples tracked while live. *)
  for i = 1 to 20 do
    ignore (Sampler.on_alloc s i ~size:500 ~now:0.0)
  done;
  check_int "estimate = tracked x period" (Sampler.live_tracked s * 1000)
    (Sampler.live_heap_estimate_bytes s);
  let profile = Sampler.live_profile s in
  check_bool "one size bin" true (List.length profile = 1);
  (match profile with
  | [ (bin, n) ] ->
    check_int "bin is 256 (2^8 <= 500)" 256 bin;
    check_int "all tracked in bin" (Sampler.live_tracked s) n
  | _ -> Alcotest.fail "unexpected profile shape");
  (* Freeing tracked objects empties the profile. *)
  for i = 1 to 20 do
    ignore (Sampler.on_free s i ~now:1.0)
  done;
  check_int "empty after frees" 0 (Sampler.live_heap_estimate_bytes s)

let suite =
  [
    ( "trace",
      [ Alcotest.test_case "line rendering" `Quick test_line_rendering ] );
    ( "sampler_profile",
      [ Alcotest.test_case "live profile" `Quick test_sampler_live_profile ] );
  ]
