(** jemalloc-style allocator model (see the .ml header for the design and
    its deliberate simplifications).  Consumed via {!Backend}; the direct
    API exists for the conformance suite and unit tests. *)

type addr = int
type t

val page_size : int
val num_arenas : int
val small_max : int
val class_count : int
val class_of_size : int -> int
val class_size : int -> int
val slab_pages_of : int -> int

val create :
  ?config:Wsc_tcmalloc.Config.t ->
  topology:Wsc_hw.Topology.t ->
  clock:Wsc_substrate.Clock.t ->
  unit ->
  t

val malloc_th : t -> thread:int -> cpu:int -> size:int -> addr
val free_th : t -> thread:int -> cpu:int -> addr -> size:int -> unit
val release_memory : t -> target_bytes:int -> Wsc_tcmalloc.Malloc.reclaim_outcome
val cpu_idle : ?flush:bool -> t -> cpu:int -> unit

val heap_stats : t -> Wsc_tcmalloc.Malloc.heap_stats
val resident_bytes : t -> int
val live_fragmentation_ratio : t -> float
val hugepage_coverage : t -> float
val telemetry : t -> Wsc_tcmalloc.Telemetry.t
val vm : t -> Wsc_os.Vm.t
val vcpus : t -> Wsc_os.Vcpu.t
val config : t -> Wsc_tcmalloc.Config.t
val topology : t -> Wsc_hw.Topology.t
val clock : t -> Wsc_substrate.Clock.t
val audit : t -> Wsc_tcmalloc.Audit.report

(** {2 Extent tier}

    One arena's free-extent index, exposed for the differential and
    allocation-budget tests.  [insert_extent] coalesces with address
    neighbours of the same chunk and munmaps a chunk that becomes whole;
    [mmap_chunk] adds a fresh chunk without coalescing. *)

type arena
type chunk

val arena : t -> int -> arena
val chunk_base : chunk -> addr
val chunk_pages : chunk -> int
val mmap_chunk : t -> arena -> pages:int -> chunk
val alloc_extent : t -> arena -> pages:int -> (addr * chunk) option
val insert_extent : t -> arena -> base:addr -> pages:int -> chunk:chunk -> unit
