(* Backend conformance and rival-model tests.

   The qcheck properties drive [Wsc_backend.Conformance] scripts — random
   alloc/free/churn/pressure sequences with invariants checked at every
   [Check] — against all three backends, with and without a hard memory
   limit.  The unit tests pin down the rival models' size-class algebra
   and the dispatcher's contract (rseq rejection, snapshot round-trips,
   cross-CPU free draining). *)

module Backend = Wsc_backend.Backend
module Conformance = Wsc_backend.Conformance
module Rp = Wsc_backend.Rpmalloc_model
module Je = Wsc_backend.Jemalloc_model
module Clock = Wsc_substrate.Clock
module Topology = Wsc_hw.Topology
module Config = Wsc_tcmalloc.Config
module Malloc = Wsc_tcmalloc.Malloc
module Telemetry = Wsc_tcmalloc.Telemetry
module Audit = Wsc_tcmalloc.Audit
module Vm = Wsc_os.Vm
module Rseq = Wsc_os.Rseq
module Units = Wsc_substrate.Units
module Driver = Wsc_workload.Driver
module Machine = Wsc_fleet.Machine
module Fleet = Wsc_fleet.Fleet

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qcheck t = QCheck_alcotest.to_alcotest t

let config_of kind = Config.with_backend kind Config.baseline

let fresh_backend kind =
  Backend.create ~config:(config_of kind) ~topology:Topology.default
    ~clock:(Clock.create ()) ()

let report_failures result =
  String.concat "; " (List.map Conformance.describe_failure result.Conformance.failures)

(* {1 Conformance properties} *)

let conformance_property kind =
  QCheck.Test.make
    ~name:(Printf.sprintf "conformance_%s" (Config.backend_name kind))
    ~count:15
    QCheck.(int_range 0 1000)
    (fun seed ->
      let script = Conformance.script ~seed ~length:400 in
      let result = Conformance.run ~config:(config_of kind) ~script () in
      if not (Conformance.passed result) then
        QCheck.Test.fail_report (report_failures result);
      result.Conformance.checks > 0)

let conformance_under_limit_property kind =
  QCheck.Test.make
    ~name:(Printf.sprintf "conformance_%s_hard_limit" (Config.backend_name kind))
    ~count:8
    QCheck.(int_range 0 1000)
    (fun seed ->
      (* A tight limit forces the reclaim-retry path and legal OOMs. *)
      let script = Conformance.script ~seed ~length:300 in
      let result =
        Conformance.run ~config:(config_of kind)
          ~hard_limit_bytes:(48 * 1024 * 1024) ~script ()
      in
      if not (Conformance.passed result) then
        QCheck.Test.fail_report (report_failures result);
      true)

(* {1 Fleet determinism per backend} *)

let fleet_fingerprint fleet =
  List.map
    (fun (j : Machine.job) ->
      let tel = Backend.telemetry j.Machine.backend in
      ( Telemetry.alloc_count tel,
        Telemetry.free_count tel,
        Telemetry.live_requested_bytes tel,
        (Backend.heap_stats j.Machine.backend).Malloc.resident_bytes,
        Driver.requests_completed j.Machine.driver ))
    (Fleet.jobs fleet)

let fleet_determinism_property kind =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "fleet_%s_jobs4_eq_jobs1" (Config.backend_name kind))
    ~count:2
    QCheck.(int_range 0 1000)
    (fun seed ->
      let run jobs =
        let fleet =
          Fleet.create ~seed ~num_machines:3 ~config:(config_of kind) ()
        in
        let summaries =
          Fleet.run ~jobs fleet ~duration_ns:(1.0 *. Units.sec) ~epoch_ns:Units.ms
        in
        (summaries, fleet_fingerprint fleet)
      in
      run 1 = run 4)

(* {1 rpmalloc model} *)

let test_rp_class_math () =
  check_int "16B granularity below small_max" 16 (Rp.class_size (Rp.class_of_size 1));
  for size = 1 to Rp.medium_max do
    let cls = Rp.class_of_size size in
    let rounded = Rp.class_size cls in
    if rounded < size then
      Alcotest.failf "class_size %d = %d below request %d" cls rounded size;
    if size <= Rp.small_max && rounded - size >= 16 then
      Alcotest.failf "small class slack %d for request %d" (rounded - size) size
  done;
  check_int "class count" Rp.class_count
    (Rp.class_of_size Rp.medium_max + 1)

let test_rp_roundtrip () =
  let backend = fresh_backend Config.Rpmalloc in
  let live = ref [] in
  for i = 0 to 999 do
    let size = 16 + (i * 37 mod 4000) in
    let cpu = i mod 8 in
    let addr = Backend.malloc_th backend ~thread:(-1) ~cpu ~size in
    live := (addr, size, cpu) :: !live
  done;
  let tel = Backend.telemetry backend in
  check_int "alloc count" 1000 (Telemetry.alloc_count tel);
  List.iter (fun (addr, size, cpu) -> Backend.free_th backend ~thread:(-1) ~cpu addr ~size)
    !live;
  check_int "free count" 1000 (Telemetry.free_count tel);
  check_int "live bytes" 0 (Telemetry.live_requested_bytes tel);
  check_bool "audit clean" true (Audit.is_clean (Backend.audit backend))

let test_rp_cross_cpu_free () =
  let backend = fresh_backend Config.Rpmalloc in
  (* Producer on CPU 0, consumer on CPU 5: every free is remote and lands
     on the span's deferred list until CPU 0 allocates again. *)
  let addrs =
    List.init 256 (fun _ -> Backend.malloc_th backend ~thread:(-1) ~cpu:0 ~size:128)
  in
  List.iter (fun a -> Backend.free_th backend ~thread:(-1) ~cpu:5 a ~size:128) addrs;
  check_bool "audit clean after remote frees" true
    (Audit.is_clean (Backend.audit backend));
  (* The owner drains its deferred lists on its next allocations. *)
  let again =
    List.init 256 (fun _ -> Backend.malloc_th backend ~thread:(-1) ~cpu:0 ~size:128)
  in
  List.iter (fun a -> Backend.free_th backend ~thread:(-1) ~cpu:0 a ~size:128) again;
  check_bool "audit clean after drain" true (Audit.is_clean (Backend.audit backend));
  check_int "all frees recorded" 512
    (Telemetry.free_count (Backend.telemetry backend))

let test_rp_release_memory () =
  let backend = fresh_backend Config.Rpmalloc in
  let addrs =
    List.init 512 (fun i ->
        let size = 64 + (i mod 7) * 512 in
        (Backend.malloc_th backend ~thread:(-1) ~cpu:(i mod 4) ~size, size, i mod 4))
  in
  List.iter (fun (a, size, cpu) -> Backend.free_th backend ~thread:(-1) ~cpu a ~size) addrs;
  let before = Backend.resident_bytes backend in
  let outcome = Backend.release_memory backend ~target_bytes:before in
  let after = Backend.resident_bytes backend in
  check_bool "released something" true
    Malloc.(
      outcome.transfer_bytes + outcome.cfl_span_bytes + outcome.os_released_bytes > 0);
  check_bool "resident dropped to zero" true (after = 0);
  check_bool "audit clean after release" true (Audit.is_clean (Backend.audit backend))

(* {1 jemalloc model} *)

let test_je_class_math () =
  (* 25% spacing: four classes per doubling above 128 B. *)
  for size = 1 to Je.small_max do
    let cls = Je.class_of_size size in
    let rounded = Je.class_size cls in
    if rounded < size then
      Alcotest.failf "class_size %d = %d below request %d" cls rounded size;
    if size > 128 && float_of_int rounded > 1.25 *. float_of_int size +. 1.0 then
      Alcotest.failf "class spacing above 25%%: request %d rounded %d" size rounded
  done;
  check_int "class count" Je.class_count (Je.class_of_size Je.small_max + 1);
  (* Every slab holds at least four objects. *)
  for cls = 0 to Je.class_count - 1 do
    let pages = Je.slab_pages_of cls in
    if pages * Je.page_size / Je.class_size cls < 4 then
      Alcotest.failf "slab of class %d holds fewer than 4 objects" cls
  done

let test_je_arena_binding () =
  let backend = fresh_backend Config.Jemalloc in
  (* Allocations from CPUs 0..7 exercise all [num_arenas] arenas
     round-robin; frees from a different CPU land in that CPU's tcache of
     the same arena-bound slab. *)
  let addrs =
    List.init 512 (fun i ->
        (Backend.malloc_th backend ~thread:(-1) ~cpu:(i mod 8) ~size:192, (i + 3) mod 8))
  in
  List.iter (fun (a, cpu) -> Backend.free_th backend ~thread:(-1) ~cpu a ~size:192) addrs;
  check_bool "audit clean" true (Audit.is_clean (Backend.audit backend));
  (* Flushing every CPU returns tcache objects to their slabs. *)
  for cpu = 0 to 7 do
    Backend.cpu_idle ~flush:true backend ~cpu
  done;
  let s = Backend.heap_stats backend in
  check_int "tcaches empty after flush" 0 s.Malloc.front_end_cached_bytes;
  check_bool "audit clean after flush" true (Audit.is_clean (Backend.audit backend))

let test_je_extent_coalescing () =
  let backend = fresh_backend Config.Jemalloc in
  (* Large allocations carve extents; freeing everything must coalesce
     back to whole chunks and unmap them. *)
  let addrs =
    List.init 64 (fun i ->
        let size = (1 + (i mod 5)) * 64 * 1024 in
        (Backend.malloc_th backend ~thread:(-1) ~cpu:0 ~size, size))
  in
  List.iter (fun (a, size) -> Backend.free_th backend ~thread:(-1) ~cpu:0 a ~size) addrs;
  ignore (Backend.release_memory backend ~target_bytes:max_int);
  check_int "all chunks unmapped" 0 (Backend.resident_bytes backend);
  check_bool "audit clean" true (Audit.is_clean (Backend.audit backend))

(* {1 Pressure survival} *)

let test_pressure_survival kind () =
  let backend = fresh_backend kind in
  let limit = 32 * 1024 * 1024 in
  Vm.set_hard_limit (Backend.vm backend) (Some limit);
  let live = ref [] in
  let ooms = ref 0 in
  (* Push well past the limit; the backend must either satisfy each
     allocation within the limit or raise Out_of_memory — never crash,
     never exceed resident > limit. *)
  for i = 0 to 4095 do
    let size = 16 * 1024 in
    match Backend.malloc_th backend ~thread:(-1) ~cpu:(i mod 4) ~size with
    | addr ->
      live := (addr, size, i mod 4) :: !live;
      if List.length !live > 1024 then begin
        match !live with
        | (a, s, c) :: rest ->
          Backend.free_th backend ~thread:(-1) ~cpu:c a ~size:s;
          live := rest
        | [] -> ()
      end
    | exception Stdlib.Out_of_memory ->
      incr ooms;
      (match !live with
      | (a, s, c) :: rest ->
        Backend.free_th backend ~thread:(-1) ~cpu:c a ~size:s;
        live := rest
      | [] -> ())
  done;
  check_bool "stayed under hard limit" true (Backend.resident_bytes backend <= limit);
  check_bool "audit clean under pressure" true (Audit.is_clean (Backend.audit backend));
  List.iter (fun (a, s, c) -> Backend.free_th backend ~thread:(-1) ~cpu:c a ~size:s) !live;
  ignore (Backend.release_memory backend ~target_bytes:max_int);
  check_bool "audit clean after recovery" true (Audit.is_clean (Backend.audit backend))

(* {1 Dispatcher contract} *)

let test_rseq_rejected () =
  let rseq =
    Rseq.create { Rseq.seed = 1; preempt_prob = 0.0; max_restarts = 3 }
  in
  List.iter
    (fun kind ->
      match
        Backend.create ~config:(config_of kind) ~rseq ~topology:Topology.default
          ~clock:(Clock.create ()) ()
      with
      | exception Invalid_argument _ -> ()
      | (_ : Backend.t) ->
        Alcotest.failf "rseq accepted by %s backend" (Config.backend_name kind))
    [ Config.Rpmalloc; Config.Jemalloc ];
  (* ... and accepted by tcmalloc. *)
  let backend =
    Backend.create ~config:Config.baseline ~rseq ~topology:Topology.default
      ~clock:(Clock.create ()) ()
  in
  check_bool "tcmalloc keeps its rseq" true (Backend.rseq backend <> None)

let test_snapshot_roundtrip kind () =
  let backend = fresh_backend kind in
  let addrs =
    List.init 200 (fun i ->
        let size = 32 + (i mod 9) * 100 in
        (Backend.malloc_th backend ~thread:(-1) ~cpu:(i mod 4) ~size, size, i mod 4))
  in
  let blob = Backend.snapshot backend in
  let restored = Backend.restore ~kind blob in
  check_bool "same stats after restore" true
    (Backend.heap_stats restored = Backend.heap_stats backend);
  (* The restored heap keeps working: free everything that was live. *)
  List.iter (fun (a, s, c) -> Backend.free_th restored ~thread:(-1) ~cpu:c a ~size:s) addrs;
  check_bool "restored audit clean" true (Audit.is_clean (Backend.audit restored))

(* {1 Extent arrays against the list model} *)

(* The sorted-list extent tier the per-arena arrays replaced, kept as a
   reference: [insert] rebuilds the list, coalesces every adjacent
   same-chunk pair and unmaps every whole chunk; [alloc] is first-fit from
   the lowest address. *)
module Extent_list = struct
  type x = { base : int; pages : int; chunk : Je.chunk }

  let page = Je.page_size

  let rec ins x = function
    | [] -> [ x ]
    | y :: rest when y.base < x.base -> y :: ins x rest
    | rest -> x :: rest

  let rec merge = function
    | a :: b :: rest when a.chunk == b.chunk && a.base + (a.pages * page) = b.base ->
      merge ({ a with pages = a.pages + b.pages } :: rest)
    | a :: rest -> a :: merge rest
    | [] -> []

  let mmap xs chunk = ins { base = Je.chunk_base chunk; pages = Je.chunk_pages chunk; chunk } xs

  let alloc xs ~pages =
    let rec take acc = function
      | [] -> None
      | x :: rest when x.pages >= pages ->
        let rem =
          if x.pages > pages then [ { x with base = x.base + (pages * page); pages = x.pages - pages } ]
          else []
        in
        Some ((x.base, x.chunk), List.rev_append acc (rem @ rest))
      | x :: rest -> take (x :: acc) rest
    in
    take [] xs

  (* The new list and the bases of the chunks to unmap, in order. *)
  let insert xs ~base ~pages ~chunk =
    let whole, kept =
      List.partition
        (fun x -> x.pages = Je.chunk_pages x.chunk)
        (merge (ins { base; pages; chunk } xs))
    in
    (kept, List.map (fun x -> Je.chunk_base x.chunk) whole)

  let bytes lists =
    Array.fold_left (List.fold_left (fun a x -> a + (x.pages * page))) 0 lists
end

type extent_op = Take of int * int | Give of int

let extent_op_gen =
  let open QCheck.Gen in
  let pages = frequency [ (8, int_range 1 8); (3, int_range 9 64); (1, int_range 400 1100) ] in
  frequency
    [
      (3, map2 (fun a p -> Take (a, p)) (int_bound (Je.num_arenas - 1)) pages);
      (2, map (fun k -> Give k) (int_bound 1_000_000));
    ]

let extent_op_print = function
  | Take (a, p) -> Printf.sprintf "take(arena %d, %d pages)" a p
  | Give k -> Printf.sprintf "give(%d)" k

(* Random take/give sequences (a take that finds no fit maps a chunk and
   retries, as the model's callers do), then a drain of everything still
   held: the arrays and the list model must return the same bases and
   chunks, unmap the same chunks operation by operation, and agree on the
   free-extent byte counter throughout. *)
let extent_differential_property =
  QCheck.Test.make ~name:"je_extent_arrays_match_list_model" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map extent_op_print ops))
       QCheck.Gen.(list_size (int_range 1 400) extent_op_gen))
    (fun ops ->
      let t = Je.create ~topology:Topology.default ~clock:(Clock.create ()) () in
      let vm = Je.vm t in
      let model = Array.make Je.num_arenas [] in
      let held = ref [] in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let ph () = (Je.heap_stats t).Malloc.pageheap_fragmented_bytes in
      let take a pages =
        let arena = Je.arena t a in
        let rec go ~retried =
          match (Je.alloc_extent t arena ~pages, Extent_list.alloc model.(a) ~pages) with
          | None, None when not retried ->
            model.(a) <- Extent_list.mmap model.(a) (Je.mmap_chunk t arena ~pages);
            go ~retried:true
          | Some (base, chunk), Some ((base', chunk'), xs) when base = base' && chunk == chunk' ->
            model.(a) <- xs;
            held := (a, base, pages, chunk) :: !held
          | got, want ->
            let show = function Some (b, _) -> Printf.sprintf "0x%x" b | None -> "none" in
            fail "take %d pages: arrays %s, list %s" pages (show got)
              (show (Option.map fst want))
        in
        go ~retried:false
      in
      let give k =
        match !held with
        | [] -> ()
        | l ->
          let ((a, base, pages, chunk) as h) = List.nth l (k mod List.length l) in
          held := List.filter (fun h' -> h' != h) l;
          let calls = Vm.munmap_calls vm in
          Je.insert_extent t (Je.arena t a) ~base ~pages ~chunk;
          let xs, unmapped = Extent_list.insert model.(a) ~base ~pages ~chunk in
          model.(a) <- xs;
          if Vm.munmap_calls vm - calls <> List.length unmapped
             || List.exists (Vm.is_mapped vm) unmapped
          then
            fail "give 0x%x: arrays unmapped %d chunks, list [%s]" base
              (Vm.munmap_calls vm - calls)
              (String.concat "; " (List.map (Printf.sprintf "0x%x") unmapped))
      in
      let check what =
        if ph () <> Extent_list.bytes model then
          fail "%s: ph_bytes %d, list %d" what (ph ()) (Extent_list.bytes model)
      in
      List.iter
        (fun op ->
          (match op with Take (a, pages) -> take a pages | Give k -> give k);
          check (extent_op_print op))
        ops;
      while !held <> [] do
        give 0;
        check "drain"
      done;
      Vm.mapped_bytes vm = 0 && ph () = 0)

(* {1 Allocation budget of the page-level tiers} *)

(* Steady-state loops over jemalloc's extent arrays (a fragmented arena
   of ~100 free extents) and a cold hugepage filler (one tracked hugepage,
   so a 1-page request passes ~250 empty buckets) must stay within a small
   fixed number of minor words per call: the list rebuilds and per-bucket
   closures they replaced cost hundreds. *)
let test_page_tier_alloc_budget () =
  let module Filler = Wsc_tcmalloc.Hugepage_filler in
  let words_per_call ~calls f =
    let w0 = Gc.minor_words () in
    f ();
    (Gc.minor_words () -. w0) /. float_of_int calls
  in
  let t = Je.create ~topology:Topology.default ~clock:(Clock.create ()) () in
  let arena = Je.arena t 0 in
  let chunk = Je.mmap_chunk t arena ~pages:1 in
  let runs =
    List.init 200 (fun _ ->
        match Je.alloc_extent t arena ~pages:1 with
        | Some (base, _) -> base
        | None -> Alcotest.fail "chunk exhausted")
  in
  List.iteri
    (fun i base -> if i mod 2 = 0 then Je.insert_extent t arena ~base ~pages:1 ~chunk)
    runs;
  let rounds = 10_000 in
  let je =
    words_per_call ~calls:(2 * rounds) (fun () ->
        for _ = 1 to rounds do
          match Je.alloc_extent t arena ~pages:2 with
          | Some (base, chunk) -> Je.insert_extent t arena ~base ~pages:2 ~chunk
          | None -> Alcotest.fail "no 2-page fit"
        done)
  in
  let f = Filler.create () in
  Filler.add_hugepage f ~base:0 ~kind:Filler.Long_lived ~donated:false ~t_used:1;
  let filler =
    words_per_call ~calls:rounds (fun () ->
        for _ = 1 to rounds do
          match Filler.allocate f ~kind:Filler.Long_lived ~pages:1 with
          | Some a -> ignore (Filler.free f a ~pages:1)
          | None -> Alcotest.fail "filler allocation failed"
        done)
  in
  if je > 8.0 then Alcotest.failf "jemalloc extent calls: %.1f minor words per call" je;
  if filler > 40.0 then
    Alcotest.failf "cold filler allocate+free: %.1f minor words per pair" filler

let test_kind_names () =
  List.iter
    (fun kind ->
      check_bool "name round-trips" true
        (Config.backend_of_name (Config.backend_name kind) = Some kind))
    Config.all_backends;
  check_bool "unknown rejected" true (Config.backend_of_name "hoard" = None)

let suite =
  [
    ( "backend",
      List.map conformance_property Config.all_backends
      @ List.map conformance_under_limit_property Config.all_backends
      @ List.map fleet_determinism_property Config.all_backends
      |> List.map qcheck )
    ;
    ( "backend_models",
      [
        Alcotest.test_case "rp_class_math" `Quick test_rp_class_math;
        Alcotest.test_case "rp_roundtrip" `Quick test_rp_roundtrip;
        Alcotest.test_case "rp_cross_cpu_free" `Quick test_rp_cross_cpu_free;
        Alcotest.test_case "rp_release_memory" `Quick test_rp_release_memory;
        Alcotest.test_case "je_class_math" `Quick test_je_class_math;
        Alcotest.test_case "je_arena_binding" `Quick test_je_arena_binding;
        Alcotest.test_case "je_extent_coalescing" `Quick test_je_extent_coalescing;
        Alcotest.test_case "rp_pressure_survival" `Quick
          (test_pressure_survival Config.Rpmalloc);
        Alcotest.test_case "je_pressure_survival" `Quick
          (test_pressure_survival Config.Jemalloc);
        Alcotest.test_case "tc_pressure_survival" `Quick
          (test_pressure_survival Config.Tcmalloc);
        Alcotest.test_case "rseq_rejected_by_rivals" `Quick test_rseq_rejected;
        Alcotest.test_case "rp_snapshot_roundtrip" `Quick
          (test_snapshot_roundtrip Config.Rpmalloc);
        Alcotest.test_case "je_snapshot_roundtrip" `Quick
          (test_snapshot_roundtrip Config.Jemalloc);
        Alcotest.test_case "kind_names" `Quick test_kind_names;
        qcheck extent_differential_property;
        Alcotest.test_case "page_tier_alloc_budget" `Quick test_page_tier_alloc_budget;
      ] );
  ]
