(* The traced replay loop: the same event-by-event replay as
   [Wsc_trace.Replay.run_preloaded], driven through
   [Backend.malloc_th]/[free_th]/[cpu_idle] with every call timed.  Each
   malloc is attributed to the tier whose [Telemetry.hits] counter moved,
   which gives host time per allocator tier without touching the
   allocator's code.  The caller checks that [result] equals
   [Replay.run_preloaded]'s on the same events. *)

open Wsc_substrate
module Backend = Wsc_backend.Backend
module Malloc = Wsc_tcmalloc.Malloc
module Telemetry = Wsc_tcmalloc.Telemetry
module Cost_model = Wsc_hw.Cost_model
module Topology = Wsc_hw.Topology
module Replay = Wsc_trace.Replay
module Event = Wsc_workload.Trace

let now () = Int64.to_int (Monotonic_clock.now ())

(* Cost of one clock read as seen between two back-to-back reads: the
   fixed part every timed call includes, subtracted from each sample. *)
let clock_ns =
  lazy
    (let s = Stats.Sample.create () in
     for _ = 1 to 20_000 do
       let t0 = now () in
       Stats.Sample.add s (float_of_int (now () - t0))
     done;
     int_of_float (Stats.Sample.quantile s 0.5))

(* Host ns per call, in ~3% bins: millions of samples in constant memory. *)
let new_hist () = Histogram.create ~base:1.03 ~lo:1.0 ~hi:1e10 ()

let tiers = Array.of_list Cost_model.all_tiers

let tier_label = function
  | Cost_model.Per_cpu_cache -> "per_cpu"
  | Transfer_cache -> "transfer"
  | Central_free_list -> "cfl"
  | Pageheap -> "pageheap"
  | Mmap -> "mmap"

type t = {
  result : Replay.result;
  by_tier : Histogram.t array;  (** Timed mallocs, indexed like [tiers]. *)
  malloc : Histogram.t;
  free : Histogram.t;
  retire : Histogram.t;
  unattributed : int;  (** Timed mallocs where no hit counter moved. *)
  timed_ns : int;  (** Sum of timed call durations, clock cost removed. *)
  backend : Backend.t;  (** The replayed allocator, for its counters. *)
}

(* Calls on allocator operations numbered [from_op] and later (mallocs and
   frees counted from 0) are timed; earlier ones only advance the state. *)
let run ?(from_op = 0) ~config events =
  let clock_cost = Lazy.force clock_ns in
  let clock = Clock.create () in
  let topology = Topology.default in
  let backend = Backend.create ~config ~topology ~clock () in
  let tel = Backend.telemetry backend in
  let num_cpus = Topology.num_cpus topology in
  let seen = Array.map (Telemetry.hits tel) tiers in
  let by_tier = Array.map (fun _ -> new_hist ()) tiers in
  let malloc = new_hist () and free = new_hist () and retire = new_hist () in
  let addr_of_id = Hashtbl.create 4096 in
  let peak = ref 0 and ops = ref 0 and unattributed = ref 0 and timed_ns = ref 0 in
  let allocations = ref 0 and frees = ref 0 and retires = ref 0 in
  let sample h dt =
    let dt = max 0 (dt - clock_cost) in
    Histogram.add h (float_of_int dt);
    timed_ns := !timed_ns + dt
  in
  Array.iter
    (fun ev ->
      match ev with
      | Event.Alloc { id; size; cpu } ->
        let t0 = now () in
        let addr = Backend.malloc_th backend ~thread:(-1) ~cpu:(cpu mod num_cpus) ~size in
        let dt = now () - t0 in
        Hashtbl.replace addr_of_id id (addr, size);
        incr allocations;
        let tier = ref (-1) in
        for i = 0 to Array.length tiers - 1 do
          let h = Telemetry.hits tel tiers.(i) in
          if h <> seen.(i) then begin
            seen.(i) <- h;
            tier := i
          end
        done;
        if !ops >= from_op then begin
          sample malloc dt;
          if !tier >= 0 then Histogram.add by_tier.(!tier) (float_of_int (max 0 (dt - clock_cost)))
          else incr unattributed
        end;
        incr ops
      | Event.Free { id; cpu } ->
        let addr, size =
          match Hashtbl.find_opt addr_of_id id with
          | Some entry -> entry
          | None -> invalid_arg "wscbench: free of unknown id"
        in
        Hashtbl.remove addr_of_id id;
        let t0 = now () in
        Backend.free_th backend ~thread:(-1) ~cpu:(cpu mod num_cpus) addr ~size;
        let dt = now () - t0 in
        incr frees;
        if !ops >= from_op then sample free dt;
        incr ops
      | Event.Advance { dt_ns } ->
        Clock.advance clock dt_ns;
        let rss = (Backend.heap_stats backend).Malloc.resident_bytes in
        if rss > !peak then peak := rss
      | Event.Retire { cpu; flush } ->
        let t0 = now () in
        Backend.cpu_idle ~flush backend ~cpu:(cpu mod num_cpus);
        let dt = now () - t0 in
        incr retires;
        if !ops >= from_op then sample retire dt)
    events;
  {
    result =
      {
        Replay.allocations = !allocations;
        frees = !frees;
        retires = !retires;
        peak_rss_bytes = !peak;
        final_stats = Backend.heap_stats backend;
        malloc_ns = Telemetry.total_malloc_ns tel;
      };
    by_tier;
    malloc;
    free;
    retire;
    unattributed = !unattributed;
    timed_ns = !timed_ns;
    backend;
  }

(* Hits per tier among the timed mallocs. *)
let window_hits t = Array.map Histogram.count t.by_tier
