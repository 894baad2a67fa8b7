(** A generic explicit-state search engine.

    The repo's three explorers — zone-graph reachability
    ({!Ta.Reach}), the discrete adversary search ({!Core.Dverify}) and
    the concrete enumeration oracle ({!Ta.Concrete.enumerate}) — are
    instantiations of this one engine.  It owns frontier management
    (BFS queue or DFS stack), exact and antichain
    (coverage/subsumption) deduplication over a typed key with explicit
    [equal]/[hash], unified budgets (state cap and wall-clock deadline,
    reported as one {!Exhausted} outcome), unified {!stats}, and
    parent-table trace reconstruction keyed by dense state ids.

    A run is one sequential loop on the calling domain: pop a state,
    expand it, merge its successors.  Callers that want parallelism run
    independent searches side by side (distinct slot groups, mapping
    candidates); a single search never fans out. *)

type budget_reason =
  | Max_states of int  (** the state cap that was hit *)
  | Deadline of float  (** the wall-clock budget, seconds *)

type stats = {
  states : int;  (** distinct states inserted, including the initial *)
  transitions : int;  (** successors generated (pre-dedup) *)
  elapsed : float;  (** wall-clock seconds *)
  waiting_peak : int;  (** deepest the frontier ever got *)
  dedup_hits : int;  (** successors equal (by key) to a stored state *)
  cover_hits : int;  (** successors subsumed by the coverage antichain *)
}

type order =
  | Bfs  (** FIFO *)
  | Dfs  (** LIFO; successors of a state are popped most-recent-first *)

(** What a client must provide: states, labelled successor generation,
    a typed dedup key with explicit equality and hashing (no
    polymorphic magic), and the target predicate.  [is_target] receives
    the label that produced the state, or [None] for the initial
    state. *)
module type STATE_SPACE = sig
  type state
  type label

  module Key : Hashtbl.HashedType

  val key : state -> Key.t
  val successors : state -> (label * state) list
  val is_target : label option -> state -> bool
end

module Make (S : STATE_SPACE) : sig
  (** Antichain subsumption: states are grouped by a coverage key and,
      within a group, a candidate covered by a stored abstract element
      is pruned ([covers stored candidate]); on insertion, stored
      elements covered by the newcomer are dropped.  [split] computes
      the group key and the abstract element in one pass. *)
  type coverage =
    | Coverage : {
        split : S.state -> 'ck * 'abs;
        ck_equal : 'ck -> 'ck -> bool;
        ck_hash : 'ck -> int;
        covers : 'abs -> 'abs -> bool;
      }
        -> coverage

  type outcome =
    | Found of S.state  (** the target was reached; witness attached *)
    | Completed  (** the space was exhausted without hitting it *)
    | Exhausted of budget_reason
        (** a budget ran out first: genuinely undetermined *)

  type result = {
    outcome : outcome;
    stats : stats;
    trace : (S.label * S.state) list;
        (** chronological path to the found state (empty otherwise):
            each entry is the labelled step into that state *)
  }

  val run :
    ?order:order ->
    ?exact:bool ->
    ?coverage:coverage ->
    ?max_states:int ->
    ?max_states_check:[ `Insert | `Pop ] ->
    ?deadline:float ->
    ?deadline_mask:int ->
    ?target_check:[ `Insert | `Generate ] ->
    ?on_edge:(S.label -> S.state -> unit) ->
    ?on_insert:(S.state -> unit) ->
    ?initial_peak:int ->
    ?metrics_prefix:string ->
    ?heartbeat:int ->
    S.state ->
    result
  (** Explore from the initial state until a target is found, the
      space is exhausted, or a budget runs out.

      Deduplication: [exact] (default [true]) keeps a hash table over
      [S.key]; [coverage] adds antichain subsumption checked after an
      exact miss.  With both off every successor is treated as fresh —
      only meaningful for finite acyclic spaces.

      Budgets: [max_states] caps inserted states, checked either right
      after each insertion ([`Insert], the default — the expansion
      stops mid-state) or once per pop ([`Pop]).  [deadline] is
      wall-clock seconds, amortised: checked only on pops whose count
      masks to zero against [deadline_mask] (default [255]) so the
      syscall cannot dominate cheap expansions.

      Targets: with [`Insert] (default) only deduplicated, stored
      states are tested, including the initial state; with
      [`Generate] every generated successor is tested before dedup and
      the hit state is recorded but not counted — the regime of a
      client whose error states must never enter the visited set.

      [on_edge] runs for every generated successor, [on_insert] for
      every stored state (including the initial), both in merge
      order.  [initial_peak] (default [0]) seeds
      the frontier-depth statistic for clients that count the initial
      state.  [metrics_prefix] emits [<p>.states], [<p>.transitions],
      [<p>.waiting_peak] and [<p>.states_per_sec] through {!Obs} when
      tracing is enabled — the shared metric names live here, clients
      add only their engine-specific counters.

      With the {!Obs.Event} stream enabled, the run emits a
      ["search.heartbeat"] event every [heartbeat] pops (default 1024)
      carrying live progress — states, transitions, frontier depth,
      dedup/coverage hit counts and the running states-per-second —
      and one ["search.done"] event with the outcome. *)
end

module Symmetry : module type of Symmetry
(** Orbit partitions and canonical-sort keys for clients that quotient
    their state space by component permutations — see
    {!Symmetry.canonical_perm}.  The engine is untouched: a client
    applies the canonical relabelling inside its own [key] function. *)
