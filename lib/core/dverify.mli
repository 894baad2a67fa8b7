(** Exact discrete-time verification of a slot group.

    The paper model-checks a network of timed automata in UPPAAL.  As
    it observes, every event in the system happens at a sample boundary
    and all timing variables range over small finite sets, so the
    reachable behaviour is a finite transition system over
    {!Sched.Slot_state}: at every sample an adversary disturbs any
    subset of the currently steady applications (the sporadic model
    with minimum inter-arrival [r] is enforced by the quiet phase).
    The group is safe iff no reachable state contains an [Error] phase
    — the same query as the paper's "no application automaton reaches
    Error".

    Three engines are provided:
    - {!val-verify} with [mode = `Bfs] — plain exhaustive breadth-first
      search (the reference, analogous to the paper's unbounded UPPAAL
      run);
    - [mode = `Subsumption] — exact antichain pruning: a state whose
      remaining quiet times dominate an explored one pointwise admits a
      subset of its behaviours and is skipped (sound and complete for
      the error-reachability query);
    - {!verify_bounded} — the paper's Sec. 5 acceleration: each
      application is limited to [k] disturbance instances. *)

type reason =
  | Deadline of float  (** wall-clock budget, seconds *)
  | State_budget of int

type verdict =
  | Safe
  | Unsafe of counterexample
  | Undetermined of reason
      (** a budget ran out before the reachable space was covered; the
          group is neither proved safe nor shown unsafe *)

and counterexample = {
  steps : (int list * Sched.Slot_state.t) list;
      (** chronological (disturbed ids, post state) from the initial
          state to the first error *)
  failing : int list;  (** ids in error at the end *)
}

type stats = {
  states : int;  (** distinct states explored *)
  transitions : int;  (** ticks evaluated *)
  elapsed : float;  (** wall-clock seconds *)
  max_wait : int array;
      (** per application, the largest wait at which it was ever
          granted the slot across the whole reachable space — the
          exact worst-case response time of the group (indexed by
          [Appspec.id]; [-1] when never granted, e.g. never disturbed
          or exploration aborted on a counterexample) *)
}

type result = { verdict : verdict; stats : stats }

val verify :
  ?order:[ `Bfs | `Dfs ] ->
  ?policy:Sched.Slot_state.policy ->
  ?mode:[ `Bfs | `Subsumption ] ->
  ?prefilter:bool ->
  ?symmetry:bool ->
  ?deadline:float ->
  ?max_states:int ->
  Sched.Appspec.t array ->
  result
(** Exhaustive verification (default mode [`Subsumption], default
    policy {!Sched.Slot_state.Eager_preempt}).  Pass
    [~policy:Lazy_preempt] to check the paper's concluding-remarks
    variant that postpones preemption.  [deadline] (wall-clock seconds,
    checked every 1024 expansions) and [max_states] bound the search;
    when either runs out the verdict is {!Undetermined} — never a
    silent [Safe].

    The search runs sequentially on the calling domain, so verdicts,
    counterexamples, [stats] and the state-budget cut-off do not
    depend on [--jobs].  (Deadline cut-offs are wall-clock dependent.)

    [order] (default [`Bfs]) picks the frontier order of the
    underlying {!Search} engine.  Depth-first explores the same
    reachable space and can never flip a Safe/Unsafe answer, but
    counterexamples and state counts may differ.

    [prefilter] (default false) consults the two-sided analytic screen
    ({!Sched.Prefilter.decide}) before exploring: an [Analytic_safe]
    group returns [Safe] and an [Analytic_unsafe] one returns [Unsafe]
    with the saturation witness as counterexample, both with zero
    states/transitions and an all-[-1] [max_wait] (no exploration
    happened); [Inconclusive] falls through to the engine.  Screened
    verdicts always agree with the engine's — only the statistics
    differ.

    [symmetry] (default false) quotients the search space by
    permutations of applications with identical timing parameters
    (same [T*_w], [T⁻_dw], [T⁺_dw], [r]): states that coincide after
    canonically relabelling each orbit are explored once.  The verdict
    is preserved; on [Safe] the [max_wait] table is corrected to the
    orbit maximum (which equals the exact per-application value, by
    symmetry), and on [Unsafe] the engine transparently re-runs without
    the quotient so the counterexample, statistics and pretty-printed
    output are byte-identical to the exact run.  [states]/[transitions]
    of a [Safe] or [Undetermined] run reflect the quotient space (the
    point of the feature); groups with no two identical applications
    are unaffected bit-for-bit.
    @raise Invalid_argument when [deadline <= 0] or [max_states < 1]. *)

val verify_bounded :
  ?order:[ `Bfs | `Dfs ] ->
  ?policy:Sched.Slot_state.policy ->
  ?symmetry:bool ->
  ?deadline:float ->
  ?max_states:int ->
  instances:int ->
  Sched.Appspec.t array ->
  result
(** Each application may be disturbed at most [instances] times.  An
    under-approximation in general; exact whenever the unbounded system
    is "memoryless" past that many instances (the paper argues the
    bound computed from coinciding-disturbance counting is sufficient
    for its case study).  [symmetry] behaves as in {!val-verify} (the
    per-application disturbance budgets are part of the canonical
    form, so the quotient remains exact).  No analytic pre-filter is
    offered here: the saturation witness may disturb an application
    more than [instances] times, which the bounded adversary cannot. *)

val pp_reason : Format.formatter -> reason -> unit
val pp_verdict : Sched.Appspec.t array -> Format.formatter -> verdict -> unit

val pp_counterexample :
  Sched.Appspec.t array -> Format.formatter -> counterexample -> unit
(** The failing schedule sample by sample: disturbance arrivals and the
    resulting scheduler state, ending at the deadline miss. *)
