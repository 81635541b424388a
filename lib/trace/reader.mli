(** Streaming trace source for the binary trace format written by
    {!Writer}: header + CRC-checked blocks.  Any damage — a missing or
    wrong magic, a flipped bit, a truncated tail, a missing end-of-stream
    marker, garbage past the end — raises {!Corrupt} carrying the index of
    the offending block.  Memory use is one block plus the live-set index,
    independent of trace length. *)

module Event = Wsc_workload.Trace

exception Corrupt of { block : int; reason : string }
(** A trace failed an integrity check.  [block] is the 0-based index
    of the block where the damage was detected. *)

type t

val open_file : string -> t
(** Check the header and position the stream at the first event.
    @raise Corrupt with [block = 0] if the file does not start with the
    trace magic ([reason = "not a wscalloc trace (bad magic)"]) or has a
    truncated or unsupported header. *)

val close : t -> unit
val with_file : string -> (t -> 'a) -> 'a

val iter : t -> (Event.event -> unit) -> unit
(** Stream every event through the callback, in order.  Single-shot: a
    reader can be iterated once.
    @raise Corrupt on damaged input; events already delivered before the
    damage point stand. *)

val fold : t -> 'a -> ('a -> Event.event -> 'a) -> 'a

val copy_into : t -> Writer.t -> int
(** Stream this reader into a writer (re-encode); returns the number of
    events copied.  The caller closes the writer. *)

val events_read : t -> int
val blocks_read : t -> int
(** Events / blocks delivered so far (useful after [iter]). *)

(** {1 Verification} *)

type summary = {
  events : int;
  allocations : int;
  frees : int;
  advances : int;
  retires : int;
  blocks : int;
  live_at_end : int;  (** Objects allocated but never freed. *)
  duration_ns : float;  (** Sum of all [Advance] steps. *)
}

val verify : string -> summary
(** Fully stream a trace, checking structure, checksums and semantic
    validity, without building anything but counters.
    @raise Corrupt as {!iter} does. *)
