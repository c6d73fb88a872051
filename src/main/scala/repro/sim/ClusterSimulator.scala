package repro.sim

import scala.collection.mutable
import scala.util.Random
import repro.Par

/** Discrete-event simulator of a Spark cluster executing a profiled query —
  * the substitute for the paper's Azure Synapse Spark pool (DESIGN.md).
  *
  * Task durations and the stage DAG come from a real local run
  * ([[TaskProfile]]); the simulator rescales execution to arbitrary executor
  * counts `n` and cores-per-executor `e_c`, modelling the effects that make
  * real `t(n)` curves deviate from an idealised critical-path estimate:
  *
  *   - slot contention: a stage's tasks are LPT-assigned to `n × e_c` slots,
  *     respecting stage lineage and the sequential submission of jobs;
  *   - per-task launch overhead (hurts small `n`, where overheads serialize);
  *   - shuffle fan-in: fetching a shuffle partition from many executors costs
  *     slightly more than from few (grows with `log n`), which flattens and
  *     can even invert the curve at large `n` (paper §3.1's observed
  *     non-monotonicity);
  *   - an `e_c` efficiency penalty away from the reference `e_c = 4`
  *     (GC pressure at large executors, per-executor overheads at small ones,
  *     paper §3.3 / Figure 5c);
  *   - executor arrival lag (gradual allocation, paper §5.4 observes 20–30 s
  *     ramp-up on Synapse) and seeded lognormal per-task noise reproducing
  *     the run-to-run variance structure of §5.1 (long serial runs average
  *     the noise out; short wide runs do not).
  *
  * One engine, [[simulate]], runs a profile under one of three
  * executor-allocation policies, the substrate for the paper's §5.4
  * skyline/AUC comparison (Figures 12/13):
  *
  *   - [[Static]]: all `n` executors held from submission to completion (the
  *     paper's SA, and the ground-truth configuration for `t(n)` curves).
  *   - [[Dynamic]]: Spark dynamic allocation — start at `min`, and while
  *     tasks back up, request exponentially growing executor batches
  *     (1, 2, 4, …) after a backlog timeout; requested executors arrive
  *     gradually (allocation lag); idle executors are removed after an idle
  *     timeout (the paper's DA(1,48)).
  *   - [[PredictiveRule]]: AutoExecutor's combination (§4.6) — a predictive
  *     request for the model-selected count made at optimization time,
  *     scale-*up* by DA disabled, idle-timeout scale-*down* retained (the
  *     paper's Rule).
  *
  * Time constants are scaled-down analogues of the paper's testbed, where
  * queries run minutes, full allocation takes 20–30 s and the DA idle timeout
  * is 60 s; our profiled queries run seconds, so lags scale proportionally.
  * The same constants are shared by every policy and query.
  */
object ClusterSimulator {

  /** Cluster-side fidelity knobs. Defaults are tuned once, globally — never
    * per query — and all experiments share them.
    *
    * `spillCoeff`/`executorMemoryMb` model memory pressure: with few
    * executors, a stage's working set exceeds the pool's aggregate memory
    * and tasks pay spill/GC cost. This is the dominant reason real `t(1)`
    * exceeds Sparklens-style estimates (the paper's large E(n) at small n,
    * §5.2) — Sparklens scales task times linearly and cannot see it.
    * `executorMemoryMb` is in units of this repo's scaled-down data sizes.
    */
  final case class Fidelity(
      taskLaunchOverheadMs: Double = 4.0,
      shuffleFanInMsPerMb: Double = 0.6,
      ecPenaltyCoeff: Double = 0.09,
      noiseSigma: Double = 0.08,
      spillCoeff: Double = 0.35,
      executorMemoryMb: Double = 1.0,
  )

  /** Multiplicative task slowdown of a stage whose working set (`stageMb`)
    * overflows the aggregate memory of `executors` executors. 1.0 when the
    * stage fits; grows with the log of the overflow factor (spills are
    * re-read a bounded number of times, not linearly).
    */
  def spillFactor(stageMb: Double, executors: Int, fidelity: Fidelity): Double = {
    if (fidelity.spillCoeff == 0.0 || stageMb <= 0.0) 1.0
    else {
      val overflow = stageMb / (math.max(executors, 1) * fidelity.executorMemoryMb)
      if (overflow <= 1.0) 1.0
      else 1.0 + fidelity.spillCoeff * (math.log(overflow) / math.log(2.0))
    }
  }

  /** One simulated execution.
    *
    * @param elapsedMs end-to-end time (driver time included)
    * @param skyline   executor allocation over time
    */
  final case class RunResult(elapsedMs: Double, skyline: Skyline)

  /** Multiplicative efficiency penalty for `e_c ≠ 4` (reference size used by
    * the paper's pools). Symmetric in `log2(e_c/4)` so both very small and
    * very large executors pay.
    */
  def ecPenalty(coresPerExecutor: Int, coeff: Double): Double = {
    val d = math.log(coresPerExecutor / 4.0) / math.log(2.0)
    1.0 + coeff * d * d
  }

  /** Reactive-policy time constants (see scaling note above). Defaults put
    * the full 48-executor ramp at ~250–350 ms — the same fraction of this
    * workload's median query duration (~1.5 s) as the paper testbed's
    * 20–30 s ramp is of its minutes-long queries.
    */
  final case class DaParams(
      minExecutors: Int = 1,
      maxExecutors: Int = 48,
      backlogTimeoutMs: Double = 20.0,
      sustainedTimeoutMs: Double = 20.0,
      allocLagMs: Double = 80.0,
      perExecutorSpacingMs: Double = 3.0,
      idleTimeoutMs: Double = 1000.0,
  )

  sealed trait Policy
  /** Static allocation: `n` executors for the app's whole lifetime. */
  final case class Static(n: Int) extends Policy
  /** Spark dynamic allocation within `[params.minExecutors, params.maxExecutors]`. */
  final case class Dynamic(params: DaParams = DaParams()) extends Policy
  /** AutoExecutor: start with `initial` executors, request `target` at
    * [[RuleDelayMs]], keep only DA's idle-removal behaviour.
    */
  final case class PredictiveRule(initial: Int, target: Int, params: DaParams = DaParams()) extends Policy

  /** When the rule's request is made: the optimizer-rule invocation point,
    * after submission.
    */
  val RuleDelayMs = 50.0

  /** Simulate `profile` under `policy`; returns elapsed time and the
    * executor skyline (from which peak `n` and AUC are read).
    */
  def simulate(
      profile: TaskProfile,
      policy: Policy,
      coresPerExecutor: Int = 4,
      fidelity: Fidelity = Fidelity(),
      seed: Long = 0L,
  ): RunResult = {
    val pool = new ExecutorPool(coresPerExecutor)

    // What the policy fixes up front: its initial (and, for the rule,
    // requested) executors, the DA constants of scale-up if it runs, and
    // the idle timeout and floor of idle removal if that runs.
    val (scaleUp, idleRemoval): (Option[DaParams], Option[(Double, Int)]) = policy match {
      case Static(n) =>
        require(n >= 1, s"static allocation needs n >= 1, got $n")
        pool.addExecutors(n, 0.0, 0.0)
        (None, None)
      case Dynamic(p) =>
        pool.addExecutors(math.max(p.minExecutors, 1), 0.0, 0.0)
        (Some(p), Some((p.idleTimeoutMs, math.max(p.minExecutors, 1))))
      case PredictiveRule(initial, target, p) =>
        require(initial >= 1, s"rule policy needs initial >= 1, got $initial")
        pool.addExecutors(initial, 0.0, 0.0)
        // The predictive request: all missing executors asked for at rule
        // time, arriving gradually after the allocation lag.
        pool.addExecutors(math.min(target, p.maxExecutors) - initial, RuleDelayMs + p.allocLagMs,
          p.perExecutorSpacingMs)
        (None, Some((p.idleTimeoutMs, 1))) // the rule keeps at least one executor alive
    }

    val rng    = new Random(seed)
    val ecPen  = ecPenalty(coresPerExecutor, fidelity.ecPenaltyCoeff)
    val finish = mutable.Map.empty[Int, Double]
    var prevJobEnd  = 0.0
    var curJob      = -1
    var jobEndSoFar = 0.0
    val driverHead  = 0.5 * profile.driverMs
    var appEnd      = driverHead

    for (stage <- profile.runOrder) {
      if (stage.jobIndex != curJob) { prevJobEnd = jobEndSoFar; curJob = stage.jobIndex }
      val parentEnd = stage.parentIds.map(p => finish.getOrElse(p, 0.0)).foldLeft(0.0)(math.max)
      val ready     = math.max(driverHead, math.max(parentEnd, prevJobEnd))

      // Reactive scale-down: drop executors that have sat idle past the
      // timeout before this stage became ready (most-idle first), keeping
      // the policy's floor.
      idleRemoval.foreach { case (timeoutMs, floor) => pool.removeIdle(timeoutMs, floor, untilMs = ready) }

      // Reactive scale-up (Dynamic only): exponential request rounds while
      // the stage's tasks exceed live and inbound capacity, following
      // Spark's dynamic-allocation ramp.
      scaleUp.foreach { p =>
        val needed = math.min(
          (stage.numTasks + coresPerExecutor - 1) / coresPerExecutor,
          p.maxExecutors,
        )
        var visible  = pool.size
        var reqTime  = ready + p.backlogTimeoutMs
        var batch    = 1
        while (visible < needed) {
          val add = math.min(batch, needed - visible)
          pool.addExecutors(add, reqTime + p.allocLagMs, p.perExecutorSpacingMs)
          visible += add
          batch *= 2
          reqTime += p.sustainedTimeoutMs
        }
      }

      val nExec = pool.size
      val fanIn = 1.0 + math.log1p(math.max(nExec - 1, 0).toDouble)
      val shufflePerTaskMb =
        if (stage.numTasks == 0) 0.0
        else stage.shuffleReadBytes.toDouble / stage.numTasks / (1024.0 * 1024.0)
      val shuffleExtraMs = shufflePerTaskMb * fidelity.shuffleFanInMsPerMb * fanIn
      val stageMb = (stage.shuffleReadBytes + stage.inputBytes).toDouble / (1024.0 * 1024.0)
      val spill   = spillFactor(stageMb, nExec, fidelity)

      // Longest task first.
      val durations = stage.longestFirstMs
      var stageEnd = ready
      var t = 0
      while (t < durations.length) {
        val noise = math.exp(rng.nextGaussian() * fidelity.noiseSigma - fidelity.noiseSigma * fidelity.noiseSigma / 2)
        val cost  = durations(t) * noise * ecPen * spill + fidelity.taskLaunchOverheadMs + shuffleExtraMs
        val end   = pool.scheduleTask(ready, cost)
        stageEnd = math.max(stageEnd, end)
        t += 1
      }
      finish(stage.stageId) = stageEnd
      jobEndSoFar = math.max(jobEndSoFar, stageEnd)
      appEnd = math.max(appEnd, stageEnd)
    }

    val elapsed = appEnd + (profile.driverMs - driverHead)
    // Idle removal also happens while trailing serial work runs (Spark's DA
    // monitors continuously, not only at stage starts) — apply it up to the
    // end of the app before the skyline is read.
    idleRemoval.foreach { case (timeoutMs, floor) => pool.removeIdle(timeoutMs, floor, untilMs = elapsed) }
    RunResult(elapsed, pool.skyline(elapsed))
  }

  /** Mean after discarding points outside ±1.5×IQR (paper §5.1). */
  def meanWithoutOutliers(xs: IndexedSeq[Double]): Double = {
    require(xs.nonEmpty, "no measurements")
    val sorted = xs.sorted
    def quantile(q: Double): Double = {
      val pos  = q * (sorted.length - 1)
      val lo   = pos.toInt
      val frac = pos - lo
      if (lo + 1 < sorted.length) sorted(lo) * (1 - frac) + sorted(lo + 1) * frac else sorted(lo)
    }
    val q1 = quantile(0.25); val q3 = quantile(0.75)
    val iqr = q3 - q1
    val kept = sorted.filter(x => x >= q1 - 1.5 * iqr && x <= q3 + 1.5 * iqr)
    val use  = if (kept.nonEmpty) kept else sorted
    use.sum / use.length
  }

  /** The paper's measurement protocol (§5.1) over a grid of executor
    * counts: at each `n`, `reps` static runs with seeds `seed + 31 r`,
    * outliers beyond ±1.5×IQR discarded, mean of the rest. All grid × reps
    * runs are simulated in parallel; each n's mean reads its runs in rep
    * order.
    */
  def actualCurve(
      profile: TaskProfile,
      grid: Seq[Int],
      coresPerExecutor: Int = 4,
      fidelity: Fidelity = Fidelity(),
      reps: Int = 5,
      seed: Long = 17L,
  ): IndexedSeq[(Int, Double)] = {
    val ns    = grid.toIndexedSeq
    val times = Par.tabulate(ns.size * reps) { i =>
      simulate(profile, Static(ns(i / reps)), coresPerExecutor, fidelity, seed + 31L * (i % reps)).elapsedMs
    }
    ns.indices.map(j => ns(j) -> meanWithoutOutliers(times.slice(j * reps, (j + 1) * reps)))
  }
}

/** Mutable pool of simulated executors, each `coresPerExecutor` slots wide.
  * Executors may arrive mid-run and be removed once idle; their arrival and
  * removal times, indexed by executor id, give the skyline.
  *
  * A min-tree over the slots, ordered by executor then slot, is the pool's
  * one record of when each slot is next free, and finds a task's slot in
  * O(log slots). A slot's leaf starts at its executor's arrival and never
  * decreases while the executor is live, since task costs are not negative;
  * a removed executor's slots hold +∞.
  */
final class ExecutorPool(val coresPerExecutor: Int) {

  private val arrivals  = mutable.ArrayBuffer.empty[Double]
  private val removals  = mutable.ArrayBuffer.empty[Double] // +∞ while the executor is live
  private var liveCount = 0

  /** Leaves `capacity until 2 * capacity` are the slots; node `i` holds the
    * minimum of nodes `2i` and `2i + 1`.
    */
  private var capacity = 64
  private var tree     = Array.fill(2 * capacity)(Double.PositiveInfinity)

  private def setSlot(slot: Int, freeAtMs: Double): Unit = {
    var i = capacity + slot
    tree(i) = freeAtMs
    i >>>= 1
    while (i >= 1) { tree(i) = math.min(tree(2 * i), tree(2 * i + 1)); i >>>= 1 }
  }

  /** Double the leaves until `slots` fit, keeping the existing slots. */
  private def ensureCapacity(slots: Int): Unit = if (slots > capacity) {
    var cap = capacity
    while (cap < slots) cap *= 2
    val grown = Array.fill(2 * cap)(Double.PositiveInfinity)
    System.arraycopy(tree, capacity, grown, cap, capacity)
    var i = cap - 1
    while (i >= 1) { grown(i) = math.min(grown(2 * i), grown(2 * i + 1)); i -= 1 }
    capacity = cap
    tree = grown
  }

  private def setExecutor(id: Int, freeAtMs: Double): Unit =
    (0 until coresPerExecutor).foreach(s => setSlot(id * coresPerExecutor + s, freeAtMs))

  /** When slot `slot` of executor `id` is next free; +∞ once it is removed. */
  private[sim] def slotFreeAt(id: Int, slot: Int): Double = tree(capacity + id * coresPerExecutor + slot)

  /** Add `count` executors (none if `count <= 0`), the `i`-th arriving at
    * `atMs + i * spacingMs`.
    */
  def addExecutors(count: Int, atMs: Double, spacingMs: Double): Unit = {
    ensureCapacity((arrivals.length + math.max(count, 0)) * coresPerExecutor)
    for (i <- 0 until count) {
      val arrivalMs = atMs + i * spacingMs
      setExecutor(arrivals.length, arrivalMs)
      arrivals += arrivalMs
      removals += Double.PositiveInfinity
      liveCount += 1
    }
  }

  private[sim] def removeExecutor(id: Int, atMs: Double): Unit = {
    require(removals(id).isInfinity, s"executor $id already removed")
    removals(id) = atMs
    liveCount -= 1
    setExecutor(id, Double.PositiveInfinity)
  }

  /** Remove the executors whose idle time exceeded `timeoutMs` strictly
    * before `untilMs`, keeping `floor` executors. An executor was last busy
    * when its last slot came free (its arrival if it ran no task). Most-idle
    * executors go first and each is removed at the moment its timeout
    * actually expired.
    */
  def removeIdle(timeoutMs: Double, floor: Int, untilMs: Double): Unit = {
    val idle = arrivals.indices
      .filter(removals(_).isInfinity)
      .map(id => id -> (0 until coresPerExecutor).map(slotFreeAt(id, _)).max)
      .filter { case (_, lastBusyMs) => lastBusyMs + timeoutMs <= untilMs }
      .sortBy(_._2)
    for ((id, lastBusyMs) <- idle if liveCount > floor) removeExecutor(id, lastBusyMs + timeoutMs)
  }

  /** Executors not removed, arrived or still inbound: DA's "current + inbound". */
  def size: Int = liveCount

  /** Greedily place one task of length `costMs`, ready at `readyMs`, on the
    * slot that can finish it earliest; returns the finish time. Ties go to
    * the first slot in executor-then-slot order: the leftmost slot that can
    * start at `readyMs` if there is one, else the leftmost at the minimum.
    */
  def scheduleTask(readyMs: Double, costMs: Double): Double = {
    require(liveCount > 0, "no executors in pool")
    val bound = math.max(readyMs, tree(1))
    var i = 1
    while (i < capacity) i = if (tree(2 * i) <= bound) 2 * i else 2 * i + 1
    val finish = math.max(readyMs, tree(i)) + costMs
    setSlot(i - capacity, finish)
    finish
  }

  /** Build the skyline from executor lifetimes, clamped to the query window
    * `[0, endMs]`: executors whose allocation never materialized before the
    * query ended (in-flight requests) do not appear, and everything still
    * live is released at `endMs`.
    */
  def skyline(endMs: Double): Skyline = {
    val ds = arrivals.indices
      .filter(arrivals(_) < endMs)
      .flatMap(id => Seq((arrivals(id), +1), (math.min(removals(id), endMs), -1)))
    Skyline(ds, endMs)
  }
}
