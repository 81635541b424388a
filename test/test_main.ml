(* Test entry point: aggregates every library's suites under one alcotest
   runner so `dune runtest` exercises the whole stack. *)

(* Suites that share a name (the paper-table goldens of Test_hw and the
   digest goldens of Test_golden) run as one suite. *)
let merge_by_name suites =
  List.fold_left
    (fun acc (name, cases) ->
      if List.mem_assoc name acc then
        List.map (fun (n, cs) -> if n = name then (n, cs @ cases) else (n, cs)) acc
      else acc @ [ (name, cases) ])
    [] suites

let () =
  Alcotest.run "wsc_alloc"
    (merge_by_name @@ List.concat
       [
         Test_substrate.suite;
         Test_hw.suite;
         Test_os.suite;
         Test_tcmalloc_units.suite;
         Test_tcmalloc_alloc.suite;
         Test_workload.suite;
         Test_fleet.suite;
         Test_integration.suite;
         Test_trace.suite;
         Test_trace_stream.suite;
         Test_persist.suite;
         Test_properties.suite;
         Test_robustness.suite;
         Test_rseq.suite;
         Test_parallel.suite;
         Test_campaign.suite;
         Test_salvage.suite;
         Test_eventloop.suite;
         Test_backend.suite;
         Test_tune.suite;
         Test_golden.suite;
       ])
