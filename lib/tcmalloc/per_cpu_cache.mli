(** The per-CPU (front-end) caches (Sec. 2.1 item 1, Sec. 4.1).

    One cache per virtual CPU, indexed by the dense vCPU ids of
    {!Wsc_os.Vcpu}; each holds per-size-class stacks of object pointers and
    serves the lock-free fast path (3.1 ns in Fig. 4).  A cache is populated
    lazily the first time its vCPU allocates, with a byte budget of
    {!Config.t.per_cpu_cache_bytes} (statically 3 MiB).

    An allocation miss means the class stack is empty; a deallocation miss
    means the cache is at its byte budget.  Both spill to the transfer
    cache and are counted per vCPU — the skew of these counts across vCPU
    ids is Fig. 9b.

    With {b dynamic sizing} ({!Config.t.dynamic_per_cpu_caches}), a
    background pass every 5 s grows the budgets of the
    {!Config.t.resize_grow_candidates} caches with the most misses in the
    last interval, stealing budget round-robin from the others and evicting
    from their largest size classes first (small objects dominate
    allocations, Fig. 7).

    Every fast-path operation is a {b restartable sequence}: staging reads
    the cache and records a decision, a single commit holds all mutation,
    so {!Wsc_os.Rseq} can abort a preempted attempt without tearing the
    cache.  Each operation exists in two shapes: the direct
    [alloc]/[dealloc]/[fill_from]/[flush_batch_into] fuse stage and commit
    into one allocation-free call (the no-preemption path), and
    [prepare_*] + {!commit_staged} stage into a reusable op buffer for the
    restartable loop that {!Malloc} runs under a live injector. *)

type addr = int

type t

val create : ?config:Config.t -> unit -> t

val alloc : t -> vcpu:int -> cls:int -> addr
(** Fast-path allocation; [-1] is a front-end miss (counted). *)

val dealloc : t -> vcpu:int -> cls:int -> addr -> bool
(** Fast-path deallocation; [false] means the cache is full (counted as a
    miss) and the caller must flush a batch to the transfer cache. *)

val flush_batch_into : t -> vcpu:int -> cls:int -> n:int -> buf:addr array -> pos:int -> int
(** Pop up to [n] cached objects of a class (used on deallocation misses):
    they land most-recent first in [buf.(pos) ..]; returns how many. *)

val fill_from : t -> vcpu:int -> cls:int -> buf:addr array -> lo:int -> hi:int -> int
(** Insert refilled objects: offer [buf.(lo) .. buf.(hi-1)] in order and
    accept the prefix that fits the budget; returns how many were accepted
    (the suffix from [buf.(lo + accepted)] was rejected). *)

(** {2 Restartable fast-path operations — reusable staged-op buffer}

    Protocol: call one [prepare_*] (pure, allocation-free — it only
    records the decision in the cache-wide op buffer), then
    {!commit_staged} to apply it.  A restart overwrites the buffer with a
    fresh [prepare_*]; an abort that never commits leaves the cache
    untouched.  At most one staged op may be outstanding. *)

val prepare_alloc : t -> vcpu:int -> cls:int -> addr
(** Stage one allocation; returns the address committing would pop, or
    [-1] to stage a miss (whose commit only bumps the miss counter). *)

val prepare_dealloc : t -> vcpu:int -> cls:int -> addr -> bool
(** Stage one deallocation; [false] stages a cache-full miss. *)

val prepare_fill : t -> vcpu:int -> cls:int -> buf:addr array -> lo:int -> hi:int -> int
(** Stage {!fill_from}: returns how many objects committing would accept. *)

val prepare_flush :
  t -> vcpu:int -> cls:int -> n:int -> buf:addr array -> pos:int -> int
(** Stage {!flush_batch_into}: returns how many objects committing would
    pop into [buf.(pos) ..].  [buf] is written only by the commit. *)

val commit_staged : t -> unit
(** Apply the op staged by the last [prepare_*]; no-op if none pending. *)

val decay_tick : t -> evict:(vcpu:int -> cls:int -> addrs:addr list -> unit) -> unit
(** Demand-based capacity decay (TCMalloc shrinks per-class capacity that
    goes unused): flush half of each (vCPU, class) stack's low watermark —
    the objects that sat untouched for the whole previous interval.  Runs
    in both baseline and optimized configs. *)

val drain : t -> evict:(vcpu:int -> cls:int -> addrs:addr list -> unit) -> int
(** Memory-pressure shrink (first stage of the reclaim cascade): flush every
    cached object of every vCPU to [evict] and return the bytes drained.
    Capacity budgets are preserved; only contents are evicted. *)

val drain_vcpu : t -> vcpu:int -> evict:(vcpu:int -> cls:int -> addrs:addr list -> unit) -> int
(** Stranded-cache reclaim: flush every cached object of {e one} vCPU to
    [evict] and return the bytes drained (0 for an unpopulated id).  The
    cache keeps its capacity budget, so a reused id finds it warm. *)

val resize : t -> evict:(vcpu:int -> cls:int -> addrs:addr list -> unit) -> unit
(** One dynamic-sizing pass (no-op when the config disables it).  Evicted
    objects from shrunk caches are handed to [evict] for routing to the
    transfer cache.  Resets the per-interval miss counters. *)

val used_bytes : t -> vcpu:int -> int
val capacity_bytes : t -> vcpu:int -> int
val cached_bytes : t -> int
(** Total bytes cached across vCPUs (front-end external fragmentation). *)

val capacity_total : t -> int
val populated_caches : t -> int

val populated_vcpus : t -> int list
(** vCPU ids whose caches have been populated, ascending. *)

val iter_addrs : t -> (vcpu:int -> cls:int -> addr -> unit) -> unit
(** Walk every cached object address (the auditor's torn-operation and
    duplicate detection). *)

val misses_per_vcpu : t -> int array
(** Cumulative (allocation + deallocation) misses per vCPU id. *)
