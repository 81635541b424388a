open Wsc_substrate

type addr = int

type cpu_cache = {
  stacks : Int_stack.t array;
  low_watermark : int array;  (* fewest objects held since the last decay tick *)
  mutable used_bytes : int;
  mutable capacity_bytes : int;
  mutable interval_misses : int;
  mutable total_misses : int;
}

(* Reusable staged-op buffer for the restartable fast paths: [prepare_*]
   records the decision here (no mutation, no allocation) and
   [commit_staged] applies it.  A preempted attempt simply overwrites the
   buffer on restart, so a torn operation cannot lose or duplicate an
   object. *)
type op_kind =
  | Op_none
  | Op_alloc_hit
  | Op_alloc_miss
  | Op_dealloc_ok
  | Op_dealloc_miss
  | Op_fill
  | Op_flush

type t = {
  config : Config.t;
  mutable caches : cpu_cache option array;
  mutable populated : int;
  mutable next_victim : int;  (* round-robin rotation for capacity stealing *)
  mutable op_kind : op_kind;
  mutable op_cache : cpu_cache;  (* cache the staged op applies to *)
  mutable op_cls : int;
  mutable op_addr : int;
  mutable op_buf : addr array;  (* fill/flush: the caller's batch buffer *)
  mutable op_pos : int;  (* fill: first offered slot; flush: first landing slot *)
  mutable op_n : int;  (* fill: objects accepted; flush: objects popped *)
}

let min_capacity_bytes = 128 * 1024

(* Per-(vCPU, class) object cap: the hard per-class limit, further bounded
   so no single class can monopolize more than half the byte budget. *)
let class_cap config cls =
  let size = Size_class.size cls in
  let byte_bound = max (Size_class.batch cls) (config.Config.per_cpu_cache_bytes / 2 / size) in
  min config.Config.per_cpu_class_cap_objects byte_bound

let dummy_cache () =
  {
    stacks = [||];
    low_watermark = [||];
    used_bytes = 0;
    capacity_bytes = 0;
    interval_misses = 0;
    total_misses = 0;
  }

let create ?(config = Config.baseline) () =
  {
    config;
    caches = Array.make 8 None;
    populated = 0;
    next_victim = 0;
    op_kind = Op_none;
    op_cache = dummy_cache ();
    op_cls = 0;
    op_addr = 0;
    op_buf = [||];
    op_pos = 0;
    op_n = 0;
  }

let cache_of t vcpu =
  let n = Array.length t.caches in
  if vcpu >= n then begin
    let bigger = Array.make (max (vcpu + 1) (2 * n)) None in
    Array.blit t.caches 0 bigger 0 n;
    t.caches <- bigger
  end;
  match t.caches.(vcpu) with
  | Some c -> c
  | None ->
    let c =
      {
        stacks = Array.init Size_class.count (fun _ -> Int_stack.create ());
        low_watermark = Array.make Size_class.count 0;
        used_bytes = 0;
        capacity_bytes = t.config.Config.per_cpu_cache_bytes;
        interval_misses = 0;
        total_misses = 0;
      }
    in
    t.caches.(vcpu) <- Some c;
    t.populated <- t.populated + 1;
    c

let miss c =
  c.interval_misses <- c.interval_misses + 1;
  c.total_misses <- c.total_misses + 1

(* Every fast-path operation is expressed as a restartable sequence
   (Wsc_os.Rseq): the staging phase only reads the cache and records the
   decision; all mutation happens in a single commit.  An attempt that the
   preemption injector aborts simply never commits, so a torn operation
   cannot lose or duplicate an object.

   Each operation comes in two shapes: [prepare_*] stages into the
   reusable op buffer and [commit_staged] applies it (used under a live
   injector), while the plain [alloc]/[dealloc]/[fill_from]/
   [flush_batch_into] below fuse stage and commit into one direct step
   (the no-preemption path).  Both share the commit bodies. *)

let commit_alloc_hit c ~cls =
  ignore (Int_stack.pop c.stacks.(cls));
  c.used_bytes <- c.used_bytes - Size_class.size cls;
  let len = Int_stack.length c.stacks.(cls) in
  if len < c.low_watermark.(cls) then c.low_watermark.(cls) <- len

let commit_dealloc_ok c ~cls a =
  Int_stack.push c.stacks.(cls) a;
  c.used_bytes <- c.used_bytes + Size_class.size cls

let prepare_alloc t ~vcpu ~cls =
  let c = cache_of t vcpu in
  t.op_cache <- c;
  t.op_cls <- cls;
  let s = c.stacks.(cls) in
  if Int_stack.is_empty s then begin
    t.op_kind <- Op_alloc_miss;
    -1
  end
  else begin
    let a = Int_stack.get s (Int_stack.length s - 1) in
    t.op_kind <- Op_alloc_hit;
    t.op_addr <- a;
    a
  end

let prepare_dealloc t ~vcpu ~cls a =
  let c = cache_of t vcpu in
  t.op_cache <- c;
  t.op_cls <- cls;
  t.op_addr <- a;
  if
    c.used_bytes + Size_class.size cls <= c.capacity_bytes
    && Int_stack.length c.stacks.(cls) < class_cap t.config cls
  then begin
    t.op_kind <- Op_dealloc_ok;
    true
  end
  else begin
    t.op_kind <- Op_dealloc_miss;
    false
  end

(* How many of [buf.(lo) .. buf.(hi-1)] a refill may cache: the first
   rejection leaves the cache untouched, so every later address is
   rejected too, and acceptance is a prefix bounded by both the byte
   budget and the per-class object cap. *)
let fill_room t c ~cls ~lo ~hi =
  let size = Size_class.size cls in
  let room_bytes = max 0 ((c.capacity_bytes - c.used_bytes) / size) in
  let room_objects = max 0 (class_cap t.config cls - Int_stack.length c.stacks.(cls)) in
  min (min room_bytes room_objects) (hi - lo)

let commit_fill c ~cls buf ~lo ~n =
  let size = Size_class.size cls in
  for i = lo to lo + n - 1 do
    Int_stack.push c.stacks.(cls) buf.(i);
    c.used_bytes <- c.used_bytes + size
  done

let commit_flush c ~cls buf ~pos ~n =
  let m = Int_stack.pop_into c.stacks.(cls) buf ~pos ~n in
  c.used_bytes <- c.used_bytes - (m * Size_class.size cls);
  let len = Int_stack.length c.stacks.(cls) in
  if len < c.low_watermark.(cls) then c.low_watermark.(cls) <- len;
  m

let prepare_fill t ~vcpu ~cls ~buf ~lo ~hi =
  let c = cache_of t vcpu in
  let k = fill_room t c ~cls ~lo ~hi in
  t.op_kind <- Op_fill;
  t.op_cache <- c;
  t.op_cls <- cls;
  t.op_buf <- buf;
  t.op_pos <- lo;
  t.op_n <- k;
  k

let prepare_flush t ~vcpu ~cls ~n ~buf ~pos =
  let c = cache_of t vcpu in
  let m = min n (Int_stack.length c.stacks.(cls)) in
  t.op_kind <- Op_flush;
  t.op_cache <- c;
  t.op_cls <- cls;
  t.op_buf <- buf;
  t.op_pos <- pos;
  t.op_n <- m;
  m

let commit_staged t =
  let c = t.op_cache in
  (match t.op_kind with
  | Op_none -> ()
  | Op_alloc_hit -> commit_alloc_hit c ~cls:t.op_cls
  | Op_alloc_miss -> miss c
  | Op_dealloc_ok -> commit_dealloc_ok c ~cls:t.op_cls t.op_addr
  | Op_dealloc_miss -> miss c
  | Op_fill -> commit_fill c ~cls:t.op_cls t.op_buf ~lo:t.op_pos ~n:t.op_n
  | Op_flush -> ignore (commit_flush c ~cls:t.op_cls t.op_buf ~pos:t.op_pos ~n:t.op_n));
  t.op_kind <- Op_none

(* Direct fast paths: stage-and-commit fused, zero allocation per call.
   [alloc] returns the address or [-1] on a front-end miss. *)

let alloc t ~vcpu ~cls =
  let c = cache_of t vcpu in
  let s = c.stacks.(cls) in
  if Int_stack.is_empty s then begin
    miss c;
    -1
  end
  else begin
    let a = Int_stack.pop s in
    c.used_bytes <- c.used_bytes - Size_class.size cls;
    let len = Int_stack.length s in
    if len < c.low_watermark.(cls) then c.low_watermark.(cls) <- len;
    a
  end

let dealloc t ~vcpu ~cls a =
  let c = cache_of t vcpu in
  if
    c.used_bytes + Size_class.size cls <= c.capacity_bytes
    && Int_stack.length c.stacks.(cls) < class_cap t.config cls
  then begin
    Int_stack.push c.stacks.(cls) a;
    c.used_bytes <- c.used_bytes + Size_class.size cls;
    true
  end
  else begin
    miss c;
    false
  end

let flush_batch_into t ~vcpu ~cls ~n ~buf ~pos =
  commit_flush (cache_of t vcpu) ~cls buf ~pos ~n

let fill_from t ~vcpu ~cls ~buf ~lo ~hi =
  let c = cache_of t vcpu in
  let k = fill_room t c ~cls ~lo ~hi in
  commit_fill c ~cls buf ~lo ~n:k;
  k

(* Shrink a cache to its (reduced) budget by evicting whole stacks of the
   largest classes first — the paper prioritizes shrinking larger size
   classes since small objects dominate the allocation mix. *)
let enforce_budget c ~vcpu ~evict =
  let cls = ref (Size_class.count - 1) in
  while c.used_bytes > c.capacity_bytes && !cls >= 0 do
    let stack = c.stacks.(!cls) in
    if not (Int_stack.is_empty stack) then begin
      let size = Size_class.size !cls in
      let excess_objects =
        ((c.used_bytes - c.capacity_bytes + size - 1) / size) |> min (Int_stack.length stack)
      in
      let addrs = Int_stack.pop_up_to stack excess_objects in
      c.used_bytes <- c.used_bytes - (List.length addrs * size);
      evict ~vcpu ~cls:!cls ~addrs
    end;
    decr cls
  done

let decay_tick t ~evict =
  Array.iteri
    (fun vcpu slot ->
      match slot with
      | None -> ()
      | Some c ->
        Array.iteri
          (fun cls stack ->
            (* Objects below the class's low watermark went untouched the
               whole interval: surplus capacity to give back (TCMalloc's
               demand-based per-class capacity shrinking). *)
            let n = min (c.low_watermark.(cls) / 2) (Int_stack.length stack) in
            if n > 0 then begin
              let addrs = Int_stack.pop_up_to stack n in
              c.used_bytes <- c.used_bytes - (List.length addrs * Size_class.size cls);
              evict ~vcpu ~cls ~addrs
            end;
            c.low_watermark.(cls) <- Int_stack.length stack)
          c.stacks)
    t.caches

(* Pressure-driven shrink: empty every (vCPU, class) stack, handing the
   objects to [evict] for routing down the hierarchy.  Capacity budgets are
   untouched — demand refills the caches once pressure passes. *)
let drain t ~evict =
  let drained = ref 0 in
  Array.iteri
    (fun vcpu slot ->
      match slot with
      | None -> ()
      | Some c ->
        Array.iteri
          (fun cls stack ->
            let n = Int_stack.length stack in
            if n > 0 then begin
              let addrs = Int_stack.pop_up_to stack n in
              let bytes = List.length addrs * Size_class.size cls in
              c.used_bytes <- c.used_bytes - bytes;
              drained := !drained + bytes;
              evict ~vcpu ~cls ~addrs
            end;
            c.low_watermark.(cls) <- 0)
          c.stacks)
    t.caches;
  !drained

(* Stranded-cache reclaim: drain every class stack of one (retired) vCPU's
   cache, handing the objects to [evict].  The background reclaim pass and
   churn-time flushes use this; the cache stays populated (budget intact)
   so a reused id finds a warm, correctly sized cache. *)
let drain_vcpu t ~vcpu ~evict =
  match
    if vcpu < 0 || vcpu >= Array.length t.caches then None else t.caches.(vcpu)
  with
  | None -> 0
  | Some c ->
    let drained = ref 0 in
    Array.iteri
      (fun cls stack ->
        let n = Int_stack.length stack in
        if n > 0 then begin
          let addrs = Int_stack.pop_up_to stack n in
          let bytes = List.length addrs * Size_class.size cls in
          c.used_bytes <- c.used_bytes - bytes;
          drained := !drained + bytes;
          evict ~vcpu ~cls ~addrs
        end;
        c.low_watermark.(cls) <- 0)
      c.stacks;
    !drained

let populated_list t =
  let out = ref [] in
  Array.iteri
    (fun vcpu slot -> match slot with Some c -> out := (vcpu, c) :: !out | None -> ())
    t.caches;
  List.rev !out

let resize t ~evict =
  if t.config.Config.dynamic_per_cpu_caches then begin
    let caches = populated_list t in
    let by_misses =
      List.sort (fun (_, a) (_, b) -> compare b.interval_misses a.interval_misses) caches
    in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | (vcpu, c) :: rest ->
        if c.interval_misses > 0 then (vcpu, c) :: take (n - 1) rest else []
    in
    let growers = take t.config.Config.resize_grow_candidates by_misses in
    if growers <> [] then begin
      let grower_ids = List.map fst growers in
      let victims =
        List.filter
          (fun (vcpu, c) ->
            (not (List.mem vcpu grower_ids))
            && c.capacity_bytes - t.config.Config.resize_step_bytes >= min_capacity_bytes)
          caches
      in
      if victims <> [] then begin
        let victims = Array.of_list victims in
        let n_victims = Array.length victims in
        List.iter
          (fun (_, grower) ->
            let vcpu_v, victim = victims.(t.next_victim mod n_victims) in
            t.next_victim <- t.next_victim + 1;
            if victim.capacity_bytes - t.config.Config.resize_step_bytes >= min_capacity_bytes
            then begin
              victim.capacity_bytes <-
                victim.capacity_bytes - t.config.Config.resize_step_bytes;
              grower.capacity_bytes <-
                grower.capacity_bytes + t.config.Config.resize_step_bytes;
              enforce_budget victim ~vcpu:vcpu_v ~evict
            end)
          growers
      end
    end;
    List.iter (fun (_, c) -> c.interval_misses <- 0) caches
  end

let slot t vcpu = if vcpu < 0 || vcpu >= Array.length t.caches then None else t.caches.(vcpu)
let used_bytes t ~vcpu = match slot t vcpu with Some c -> c.used_bytes | None -> 0
let capacity_bytes t ~vcpu = match slot t vcpu with Some c -> c.capacity_bytes | None -> 0

let cached_bytes t =
  Array.fold_left
    (fun acc slot -> match slot with Some c -> acc + c.used_bytes | None -> acc)
    0 t.caches

let capacity_total t =
  Array.fold_left
    (fun acc slot -> match slot with Some c -> acc + c.capacity_bytes | None -> acc)
    0 t.caches

let populated_caches t = t.populated
let populated_vcpus t = List.map fst (populated_list t)

let iter_addrs t f =
  Array.iteri
    (fun vcpu slot ->
      match slot with
      | None -> ()
      | Some c ->
        Array.iteri
          (fun cls stack -> Int_stack.iter stack (fun a -> f ~vcpu ~cls a))
          c.stacks)
    t.caches

let misses_per_vcpu t =
  Array.map (function Some c -> c.total_misses | None -> 0) t.caches
