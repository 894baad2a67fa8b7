(** Seeded fault-injection campaigns: many randomized monitored runs
    over the slot groups of a dimensioned system.

    Every run draws an admissible disturbance schedule (arrivals of
    each application spaced at least [r] apart) and a materialised
    fault plan from the campaign spec, both from streams split off the
    campaign seed — the whole campaign is a pure function of
    [(spec, seed, runs, horizon, slots)] and its summary is
    byte-for-byte reproducible. *)

type slot_summary = {
  apps : string list;  (** names of the slot group *)
  runs : int;
  clean_runs : int;  (** runs with no violation at all *)
  j_star : int;  (** settling-budget violations, summed over runs *)
  wait : int;  (** T*_w overruns *)
  dwell : int;  (** dwell-table violations *)
  suppressed : int;  (** suppressed arrivals *)
  injected : int;  (** disturbances actually delivered *)
  blackout_samples : int;
  et_losses : int;
  sensor_drops : int;
  bus_lost_tx : int;  (** transmissions destroyed on the medium *)
  bus_undelivered : int;  (** messages never delivered within the replay *)
  bus_overruns : int;  (** ET deliveries later than one sampling period *)
}

type summary = {
  seed : int64;
  spec : Faults.Spec.t;
  horizon : int;
  slots : slot_summary list;
  total_violations : int;
  bus_backend : string option;
      (** name of the transport each trial was replayed on, when any *)
}

val run :
  ?policy:Sched.Slot_state.policy ->
  ?threshold:float ->
  ?bus:Bus.configured ->
  spec:Faults.Spec.t ->
  seed:int64 ->
  runs:int ->
  horizon:int ->
  Core.App.t list list ->
  (summary, string) result
(** [Error] reports a spec that does not materialise against a slot
    group (e.g. an unknown application name) or, with [bus], a backend
    too small for a slot group.

    With [bus], every trial's trace is additionally replayed on that
    transport ({!Engine.replay_on_bus}) under the trial's own fault
    plan; broken transport facts count the run as not clean and the
    loss totals land in the [bus_*] fields.

    With the default pool ({!Par.Pool.default}) sized above 1, trials are
    sharded across domains; each trial derives its streams from its own
    [(seed, slot, run)]-indexed split, and results are merged back in
    (slot, run) order — including error precedence — so the summary is
    byte-identical at any jobs count. *)

val pp : Format.formatter -> summary -> unit
(** Deterministic: contains no wall-clock quantities. *)
