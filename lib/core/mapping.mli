(** First-fit mapping of applications to TT slots (paper Sec. 5,
    "Resource mapping").

    Applications are sorted by ascending [T*_w], ties broken by the
    smaller maximum of [T⁻_dw] (written T⁻*_dw in the paper), and
    packed first-fit: each application is added to the first existing
    slot whose extended group still passes control-performance
    verification; otherwise it opens a new slot. *)

type verdict = [ `Safe | `Unsafe | `Undetermined of string ]
(** [`Undetermined] carries a human-readable reason (budget overruns,
    under-approximate evidence only, ...). *)

type verifier = Sched.Appspec.t array -> verdict
(** Pluggable group verifier (the discrete engine by default; the
    timed-automata engine can be swapped in for cross-checking).  Both
    mappers treat [`Undetermined] exactly like [`Unsafe] — a group is
    only ever packed on a positive safety proof. *)

type slot = { index : int; apps : App.t list }

type outcome = {
  slots : slot list;
  verifications : int;
      (** number of group-safety questions asked (a question answered
          from the verdict cache counts too, so the figure is identical
          whatever the cache warmth or jobs count) *)
  undetermined : int;
      (** verifier calls that could not decide (each conservatively
          treated as unsafe) *)
}

type cache = verdict Par.Vcache.t
(** Content-addressed verdict cache: canonical group fingerprint →
    verdict, mutex-protected (safe to share across domains and across
    both mappers).  Sound because a verdict is a pure function of the
    group's timing parameters — ids and probe order do not matter for
    exhaustive verification. *)

val create_cache : ?backing:verdict Par.Vcache.backing -> unit -> cache
(** [backing] (e.g. {!Pcache.mapping_backing}) extends the in-memory
    table with a persistent second level consulted on memory misses and
    written on engine runs. *)

val cache_stats : cache -> int * int
(** [(hits, misses)] so far; hits include backing-store hits. *)

val fingerprint : Sched.Appspec.t array -> string
(** The cache key: the entry count followed by name-sorted
    [len:name|T*_w|T⁻_dw|T⁺_dw|r] entries — invariant under group order
    and id assignment, and injective: names are length-prefixed so
    delimiter characters in an application name cannot alias another
    group's key. *)

val sort_order : App.t list -> App.t list
(** The paper's sorting: ascending [T*_w], then ascending [T⁻*_dw],
    then name for determinism. *)

val default_verifier : verifier
(** {!Dverify.verify} with subsumption, unbudgeted. *)

val first_fit :
  ?cache:cache ->
  ?order:[ `Bfs | `Dfs ] ->
  ?verifier:verifier ->
  ?prefilter:bool ->
  ?symmetry:bool ->
  ?presorted:bool ->
  App.t list ->
  outcome
(** Run the mapping.  When [presorted] is false (default) the input is
    sorted with {!sort_order} first.

    With the default pool ({!Par.Pool.default}) sized above 1, every
    candidate group of a placement round is probed concurrently and the
    verdicts are consumed in slot order with the sequential first-fit
    tie-break, so the packing, [verifications] and [undetermined] are
    byte-identical to a sequential run.  [cache] memoises verdicts by
    {!fingerprint}; pass the same cache to both mappers (or across
    calls) to skip repeated probes of the same subset.  [order]
    (default [`Bfs]) sets the frontier order of the default verifier
    (ignored when [verifier] is supplied); packings are
    order-independent because Safe/Unsafe is.

    [prefilter] (default true) screens every candidate group through
    {!Sched.Prefilter.decide} ahead of the cache and the engine; a
    screened group still counts as one verification, so packings and
    all reported counts are byte-identical with the screen on or off —
    only the exact-engine runs are saved ([mapping.screened] counts
    them).  [symmetry] (default true) lets the default verifier
    quotient the search space by permutations of identical-parameter
    applications — verdict-preserving, hence packing-preserving.  Both
    switches apply to the built-in verifier only: a caller-supplied
    [verifier] may implement different semantics, for which the
    screen's soundness argument does not hold, so it runs unscreened. *)

val specs_of_group : App.t list -> Sched.Appspec.t array
(** Dense scheduler specs for a candidate group (ids assigned in list
    order). *)

val probe :
  ?cache:cache ->
  ?prefilter:bool ->
  ?symmetry:bool ->
  Sched.Appspec.t array ->
  verdict * [ `Screen | `Mem | `Disk | `Miss ]
(** One cache-aware group-safety question with the provenance of its
    answer: [`Screen] (analytic pre-filter, only with
    [prefilter:true]), [`Mem]/[`Disk] (cache level that answered), or
    [`Miss] (the engine ran).  Uses the default subsumption engine
    ([`Bfs]; [symmetry] defaults to [true] — verdict-preserving), so
    the verdict matches {!default_verifier} byte-for-byte.
    [prefilter] defaults to [false], matching the one-shot [verify]
    command. *)

val pp : Format.formatter -> outcome -> unit

val optimal :
  ?cache:cache ->
  ?order:[ `Bfs | `Dfs ] ->
  ?verifier:verifier ->
  ?prefilter:bool ->
  ?symmetry:bool ->
  App.t list ->
  outcome
(** Exact minimum-slot partition (in contrast to the paper's first-fit
    heuristic).  Group safety is monotone — disturbing one application
    less can only shrink the adversary's options, so every superset of
    an unsafe group is unsafe and every subset of a safe group is safe
    — which prunes most of the subset lattice; the minimum partition
    over the safe subsets is then found by dynamic programming over
    bitmasks.  Exponential in the number of applications (fine for the
    slot-sized instances this problem deals in; guarded at 16 apps).
    [verifications] counts the verifier calls actually performed after
    pruning.  [prefilter] and [symmetry] (both default true) behave as
    in {!first_fit}: screened subsets keep their place in the monotone
    lattice and in [verifications], so the partition and every count
    are unchanged — only engine runs are saved.
    @raise Invalid_argument beyond 16 applications. *)
