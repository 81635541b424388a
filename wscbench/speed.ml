(* Host speed reference.

   The benchmark's host shares its cores with other tenants, and its speed
   drifts by up to 2x over tens of seconds.  A fixed reference slice, timed
   right before every measured unit, tracks that drift: host times are
   scaled to what they would read when the slice takes [nominal_s].  The
   slice is this directory's own code, a seeded hash-table churn with short
   allocations like the simulator's, so no change to the simulator can move
   it.  It runs in a child process (this binary with [--reference-slice]),
   so its heap neither grows the benchmark's heap high-water mark nor depends
   on it. *)

let nominal_s = 0.1

let slice () =
  let tbl = Hashtbl.create 4096 in
  let live = Array.make 65536 0 in
  let x = ref 12345 and acc = ref 0.0 in
  for i = 1 to 150_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFF_FFFF;
    let slot = !x land 65535 in
    let id = live.(slot) in
    if id <> 0 then begin
      match Hashtbl.find_opt tbl id with
      | Some (size, t) ->
        acc := !acc +. (t *. float_of_int size);
        Hashtbl.remove tbl id
      | None -> ()
    end;
    Hashtbl.replace tbl i (!x land 4095, float_of_int i *. 1e-3);
    live.(slot) <- i
  done;
  ignore (Sys.opaque_identity !acc)

(* Time one slice in this process: what the child runs. *)
let time_slice () =
  let t0 = Monotonic_clock.now () in
  slice ();
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9

(* Every slowdown measured in this run. *)
let samples = ref []

(* How much slower than nominal the host runs right now: a host time
   divided by this, or a rate multiplied by it, reads at nominal speed. *)
let slowdown () =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe; "--reference-slice" |] Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "wscbench: reference slice failed");
  let k = float_of_string line /. nominal_s in
  samples := k :: !samples;
  k
