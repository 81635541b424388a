(** Spans: contiguous runs of TCMalloc pages carved into same-class objects
    (Sec. 2.1, Fig. 2).

    A small-object span belongs to exactly one size class and tracks which
    of its [capacity] object slots are outstanding.  "Outstanding" counts
    objects held anywhere above the central free list — by the application
    *or* cached in the per-CPU/transfer tiers; only objects returned to the
    central free list are free within the span.  A span whose outstanding
    count drops to zero may be returned to the pageheap.

    A large span (one allocation > 256 KiB) bypasses the object machinery:
    it has no size class and is returned whole. *)

type addr = int

type t = private {
  id : int;
  base : addr;
  pages : int;
  size_class : int;  (** -1 for large spans. *)
  obj_size : int;  (** Class object size; for large spans, the span bytes. *)
  capacity : int;  (** Objects per span; 1 for large spans. *)
  mutable outstanding : int;  (** Objects currently extracted from the span. *)
  mutable carved : int;
      (** Slots [0 .. carved-1] have been issued at least once; slots
          [carved ..] are free and never issued.  Small spans carve
          lazily, upwards from the base, only once [free_slots] is
          empty. *)
  free_slots : Wsc_substrate.Int_stack.t;
      (** Indices of carved slots that came back, reissued last-in
          first-out before any new slot is carved. *)
  slot_taken : Bytes.t;
      (** Per-slot state, for double-free detection: ['\000'] free in the
          span, ['\001'] held by the application, ['\002'] cached in the
          per-CPU or transfer tier.  Both non-free states count as
          outstanding. *)
  mutable list_index : int;  (** Central-free-list bucket, -1 if not listed. *)
  birth_time : float;  (** Simulated creation time (for lifetime studies). *)
}

val create_small : id:int -> base:addr -> size_class:int -> birth_time:float -> t
(** A fresh, fully-free span of the given class (geometry from
    {!Size_class}). *)

val create_large : id:int -> base:addr -> pages:int -> birth_time:float -> t

val span_bytes : t -> int
val is_large : t -> bool

val free_objects : t -> int
(** [capacity - outstanding]. *)

val is_exhausted : t -> bool
(** No free object slots remain. *)

val is_idle : t -> bool
(** No outstanding objects; the span can return to the pageheap. *)

val pop_object : t -> addr
(** Extract one object.  @raise Invalid_argument when exhausted. *)

val pop_objects : t -> n:int -> addr list
(** Extract up to [n] objects. *)

val pop_objects_into : t -> n:int -> buf:addr array -> pos:int -> int
(** [pop_objects_into t ~n ~buf ~pos] is {!pop_objects} without the list:
    up to [n] objects land in [buf.(pos) ..] in pop order; returns how
    many.  The cache-miss batch path uses this with a preallocated
    scratch buffer. *)

val push_object : t -> addr -> unit
(** Return an object to the span.  @raise Invalid_argument if the address
    does not belong to this span, is misaligned, or the slot is already
    free (double free). *)

val contains : t -> addr -> bool

val object_is_free : t -> addr -> bool
(** Whether the object slot holding [addr] is currently free within the
    span (i.e. pushing it again would be a double free).  For large spans,
    whether the whole span is idle.
    @raise Invalid_argument if the address is outside the span. *)

val is_cached : t -> addr -> bool
(** Whether the slot holding [addr] is marked cached in the per-CPU or
    transfer tier.  [addr] must be an aligned object address of this small
    span. *)

val mark_cached : t -> addr -> unit
(** Mark an outstanding object as cached in the per-CPU or transfer tier.
    Same precondition as {!is_cached}. *)

val mark_held : t -> addr -> unit
(** Mark an outstanding object as held by the application.  Same
    precondition as {!is_cached}. *)

val cached_objects : t -> int
(** Slots marked cached (0 for large spans); the heap auditor's census. *)

val fragmented_bytes : t -> int
(** Free object slots x object size — the external fragmentation this span
    contributes while sitting in the central free list. *)

val set_list_index : t -> int -> unit
