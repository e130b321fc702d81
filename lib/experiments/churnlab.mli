(** Churn lab tables: steady-state SLOs under continuous churn.

    Two tables from {!Rofl_dynamics.Campaign} runs:

    - SLOs per (ISP × churn rate): lookup success rate and latency
      percentiles, stale-successor windows, reconvergence time, failovers,
      RPC timeouts, control overhead per churn-trace event and event-queue
      high-water mark, with churn rate expressed as mean session lifetime
      (shorter = harsher) at the default stabilisation period.
    - A stabilisation-period sweep on the first ISP at the highest churn
      rate — the knee where ring maintenance stops keeping up with
      departures.

    Every grid cell is an independent campaign fanned over the domain pool;
    tables are byte-identical at any [--jobs] setting, and every campaign
    engine honours the [--shards] setting with byte-identical tables at any
    value (the fingerprint column makes the comparison visible). *)

val params_of :
  Common.scale ->
  alpha:int ->
  lifetime_s:float ->
  period_ms:float ->
  Rofl_dynamics.Campaign.params
(** One cell of the churn grid: the scale's horizon, arrival and lookup
    rates, this mean lifetime, 20 % moves and 20 % crashes, stabilising
    every [period_ms] with [alpha] lookup branches (a pointer cache of 8
    above 1).  The doctor audits the same cells at [alpha = 1]. *)

val churn : Common.scale -> Rofl_util.Table.t list

val alpha_frontier : Common.scale -> Rofl_util.Table.t list
(** The α-parallel lookup frontier: one campaign per (ISP × α ∈ 1..4 ×
    static/auto stabilisation) at the scale's highest churn rate, every
    cell with the same pointer-cache configuration.  Rows carry the usual
    SLO columns plus the duplicate-work ledger (wasted hops, cooperative
    cancellations) and the final self-tuning state (median N̂, period
    multiplier, successor-list cap) for auto rows. *)

val megachurn : Common.scale -> Rofl_util.Table.t list
(** The compact-state acceptance run: one audited campaign over
    [scale.churn_bootstrap_hosts] hosts spliced in at time zero (10^6 at
    full scale) with open-loop lookups and live churn on top.  Running it
    at [--shards 1] and [--shards 4] must print byte-identical tables. *)
