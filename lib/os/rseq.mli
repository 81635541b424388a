(** Restartable-sequence (rseq) model for the per-CPU fast path (Sec. 2.1,
    4.1).

    The real allocator's per-CPU caches are only correct because of the
    kernel's restartable sequences: a critical section that reads the
    current CPU id and manipulates that CPU's cache is {e aborted} by the
    kernel whenever the thread is preempted or migrated mid-sequence, and
    the thread restarts it from the top on whatever CPU it now occupies.
    Mutation is confined to a single final commit, so an aborted attempt
    leaves no trace.

    This module reproduces that protocol as a four-step critical section

    {v read-vcpu -> pick-class -> prepare -> commit v}

    with a seeded injector that can preempt at {e any} step: a per-step
    Bernoulli draw models involuntary context switches, and one-shot armed
    aborts ({!note_migration}, {!force_preempt}) model scheduler migrations
    (CPU churn) and deterministic test injection.  A preempted attempt
    performs {e no} mutation; the operation restarts with a freshly read
    vCPU id, up to a bounded restart budget, after which the caller must
    take its lock-protected slow path (the transfer cache).

    The module only makes the injector's decisions; the caller runs the
    attempt loop itself.  One operation is

    {v
    enter r;
    attempt 0 (with restarts = 0, 1, ...):
      if preempted r Read_vcpu then restart-or-fall-back
      read the vCPU id
      if preempted r Pick_class then restart-or-fall-back
      prepare (reads only: stage the decision)
      if preempted r Prepare || preempted r Commit then restart-or-fall-back
      apply the staged decision; commit r
    restart-or-fall-back:
      if restart r ~restarts then attempt (restarts + 1) else take the slow path
    v}

    The [Prepare] and [Commit] checks short-circuit: an abort at
    [Prepare] draws nothing for [Commit].  Callers that keep this order
    reproduce the same random stream, so swapping one caller for another
    changes no simulated outcome.  {!Wsc_tcmalloc.Malloc} runs this loop
    over {!Wsc_tcmalloc.Per_cpu_cache}'s staged-op buffer. *)

type config = {
  seed : int;  (** Root seed of the preemption stream. *)
  preempt_prob : float;  (** Per-step preemption probability, [0, 1). *)
  max_restarts : int;  (** Restarts allowed before falling back (>= 0). *)
}

val default_preempt_prob : float
(** 0.001 — roughly one interrupted operation per 250 fast-path ops, the
    CLI's default when [--rseq] is given without [--preempt-prob]. *)

val describe : config -> string

(** The four preemption points of one fast-path operation. *)
type step =
  | Read_vcpu  (** Reading the dense vCPU id (stale after a migration). *)
  | Pick_class  (** Indexing the per-(vCPU, class) stack. *)
  | Prepare  (** Staging the pop/push (reads only; nothing written). *)
  | Commit  (** Preempted just before the single committing store lands. *)

val all_steps : step list
val n_steps : int
val step_name : step -> string

val step_of_index : int -> step
(** Inverse of position in {!all_steps}.  @raise Invalid_argument outside
    [0, n_steps). *)

type t

val create : ?index:int -> config -> t
(** One per-process injector.  [index] (the job's slot on a machine)
    perturbs the preemption stream so co-located processes are interrupted
    independently.  @raise Invalid_argument on out-of-range
    [preempt_prob] or negative [max_restarts]. *)

val config : t -> config

val enter : t -> unit
(** Start one operation (counted in {!stats}[.ops]). *)

val preempted : t -> step -> bool
(** Whether the current attempt is preempted at [step]: an armed one-shot
    abort for exactly this step is consumed first; otherwise a Bernoulli
    draw at [preempt_prob] (no draw when it is 0). *)

val commit : t -> unit
(** The current attempt passed every step and applied its staged
    decision. *)

val restart : t -> restarts:int -> bool
(** The current attempt, which followed [restarts] earlier aborts, was
    preempted.  [true]: restart it (counted as a restart).  [false]: the
    budget is spent, the operation fell back (counted) and the caller must
    take its slow path. *)

val note_migration : t -> unit
(** Arm a one-shot forced preemption at {!Read_vcpu}: the scheduler moved
    this process (CPU churn retired a vCPU), so the next fast-path attempt
    finds its CPU id stale and must abort-and-restart.  Idempotent until
    consumed. *)

val force_preempt : t -> step:step -> unit
(** Arm a one-shot forced preemption at an exact step (deterministic test
    injection, independent of [preempt_prob]). *)

type stats = {
  ops : int;  (** Operations entered. *)
  committed : int;  (** Operations whose final attempt committed. *)
  restarts : int;  (** Total abort-and-restart transitions. *)
  fallbacks : int;  (** Operations that exhausted the restart budget. *)
  forced_aborts : int;  (** Armed (migration / forced) preemptions consumed. *)
}

val stats : t -> stats
