(** Allocation trace vocabulary: the event type and its one-line text
    rendering.

    A trace is a portable, deterministic recording of an allocation stream:
    alloc/free events with object identities, issuing CPUs and simulated
    timestamps.  The storage and replay machinery is the streaming
    [wsc_trace] library ({!module:Wsc_trace.Writer} /
    {!module:Wsc_trace.Reader} for constant-memory binary persistence,
    {!module:Wsc_trace.Recorder} to capture live {!Driver} runs — the one
    event source — and {!module:Wsc_trace.Replay} for streaming replay). *)

type event =
  | Alloc of { id : int; size : int; cpu : int }
      (** Allocate [size] bytes on [cpu]; later events refer to [id]. *)
  | Free of { id : int; cpu : int }  (** Free a previously allocated object. *)
  | Advance of { dt_ns : float }  (** Advance simulated time. *)
  | Retire of { cpu : int; flush : bool }
      (** The process stopped running threads on [cpu]
          ({!Wsc_tcmalloc.Malloc.cpu_idle}); with [flush] the retired
          per-CPU cache drains to the transfer cache immediately.  Recorded
          driver runs include these so replay reproduces the allocator's
          cache state bit-exactly. *)

val line_of_event : event -> string
(** Render one event as a human-readable line (no trailing newline):
    [a <id> <size> <cpu>], [f <id> <cpu>], [t <dt_ns>] or
    [r <cpu> <0|1>].  Output only ([wscalloc trace dump]); the binary
    format is the one trace format that is read back. *)
