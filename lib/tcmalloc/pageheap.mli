(** The back-end pageheap (Sec. 2.1 item 4, Sec. 4.4).

    Manages memory in hugepage units and carves spans for the central free
    list and for large (> 256 KiB) allocations.  Requests route to one of
    three components:

    - {b hugepage filler} — spans smaller than a hugepage;
    - {b hugepage region} — multi-hugepage allocations whose tail would
      waste most of a hugepage (e.g. 2.1 MiB);
    - {b hugepage cache} — whole-hugepage allocations; a partial tail
      hugepage is donated to the filler so its slack is reusable.

    The pageheap also implements the gradual release policy: completely
    free hugepages are returned to the OS intact, and, when free memory
    still lingers inside partially-used hugepages, the filler subreleases
    (breaking THP backing, which is what the lifetime-aware filler is
    designed to avoid). *)

type addr = int

type t

val create : ?config:Config.t -> Wsc_os.Vm.t -> t

val vm : t -> Wsc_os.Vm.t

val new_small_span : t -> size_class:int -> now:float -> Span.t * int
(** A fresh span for a size class, registered in the page map.  The second
    component counts mmap calls incurred (0 or 1), so the caller can charge
    the syscall latency. *)

val new_large_span : t -> pages:int -> now:float -> Span.t * int
(** A span for one large allocation of [pages] TCMalloc pages. *)

val free_span : t -> Span.t -> unit
(** Return an idle span to the component its page count routes it to.
    @raise Invalid_argument if the span still has outstanding objects or
    is unknown (the page map does not resolve its base to it). *)

val span_of_addr : t -> addr -> Span.t option
(** Page-map lookup used by [free(ptr)]. *)

val page_map : t -> Page_map.t
(** The page -> span index (exposed for the heap auditor). *)

val filler : t -> Hugepage_filler.t
(** The hugepage filler (exposed for the heap auditor). *)

val release_backlog_bytes : t -> int
(** Bytes {!release_memory} could return to the OS immediately: cached
    whole hugepages plus the filler's free (not yet subreleased) pages. *)

val release_memory : t -> max_bytes:int -> int
(** Release up to [max_bytes] to the OS: cached whole hugepages first
    (intact), then filler subrelease (breaking hugepages).  Returns bytes
    released. *)

val background_release : t -> unit
(** One tick of the gradual release policy
    ({!Config.t.pageheap_release_fraction} of the current free backlog). *)

(** {2 Statistics (Fig. 15, Fig. 17a)} *)

type component_stats = { in_use_bytes : int; fragmented_bytes : int }

val filler_stats : t -> component_stats
val region_stats : t -> component_stats
val cache_stats : t -> component_stats

val fragmented_bytes : t -> int
(** Total pageheap external fragmentation (sum over components). *)

val in_use_bytes : t -> int

val hugepage_coverage : t -> float
(** Fraction of in-use span bytes residing on intact (THP-backed)
    hugepages.  1.0 when nothing is in use. *)

val spans_outstanding : t -> int
(** Spans currently carved: {!Page_map.span_count} of the page map. *)
