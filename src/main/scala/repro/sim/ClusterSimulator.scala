package repro.sim

import scala.collection.mutable
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

  /** Simulate a run on a *static* pool of `n` executors all present from
    * time 0 (the paper's SA policy, and the ground-truth configuration for
    * `t(n)` curves). Delegates to the shared policy simulator.
    */
  def simulate(
      profile: TaskProfile,
      n: Int,
      coresPerExecutor: Int = 4,
      fidelity: Fidelity = Fidelity(),
      seed: Long = 0L,
  ): RunResult =
    DynamicAllocation.simulate(profile, DynamicAllocation.Static(n), coresPerExecutor, fidelity, seed)

  /** Mimic the paper's measurement protocol (§5.1): `reps` runs with
    * different seeds, outliers beyond ±1.5×IQR discarded, mean of the rest.
    */
  def measure(
      profile: TaskProfile,
      n: Int,
      coresPerExecutor: Int = 4,
      fidelity: Fidelity = Fidelity(),
      reps: Int = 5,
      seed: Long = 17L,
  ): Double = {
    val times = (0 until reps).map(r => simulate(profile, n, coresPerExecutor, fidelity, repSeed(seed, r)).elapsedMs)
    meanWithoutOutliers(times)
  }

  /** Seed of repetition `r` of a [[measure]] series. */
  private def repSeed(seed: Long, r: Int): Long = seed + 31L * r

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

  /** The paper's measured `t(n)` series for one query: outlier-discarded mean
    * at each n of the grid, equal to [[measure]] at each n. All grid × reps
    * runs are simulated in parallel; each n keeps `measure`'s seeds and rep
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
      simulate(profile, ns(i / reps), coresPerExecutor, fidelity, repSeed(seed, i % reps)).elapsedMs
    }
    ns.indices.map(j => ns(j) -> meanWithoutOutliers(times.slice(j * reps, (j + 1) * reps)))
  }
}

/** Mutable pool of simulated executors, each `coresPerExecutor` slots wide.
  * Executors may arrive mid-run (`arrivalMs`) and be removed when idle; the
  * pool records allocation deltas for skyline construction.
  *
  * A min-tree over the slot free times, slots ordered by executor then
  * slot, finds a task's slot in O(log slots); a removed executor's slots
  * hold +∞. A slot is never free before its executor arrives, since task
  * costs are not negative.
  */
final class ExecutorPool(val coresPerExecutor: Int) {

  final class Executor(val id: Int, val arrivalMs: Double) {
    val slotFreeAt: Array[Double] = Array.fill(coresPerExecutor)(arrivalMs)
    var removedAt: Double         = Double.PositiveInfinity
    def lastBusyMs: Double        = math.max(arrivalMs, slotFreeAt.max)
  }

  private val executors = mutable.ArrayBuffer.empty[Executor]
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

  def addExecutor(arrivalMs: Double): Executor = {
    val e = new Executor(executors.length, arrivalMs)
    executors += e
    liveCount += 1
    ensureCapacity(executors.length * coresPerExecutor)
    var s = 0
    while (s < coresPerExecutor) { setSlot(e.id * coresPerExecutor + s, arrivalMs); s += 1 }
    e
  }

  def removeExecutor(e: Executor, atMs: Double): Unit = {
    require(e.removedAt.isInfinity, s"executor ${e.id} already removed")
    e.removedAt = atMs
    liveCount -= 1
    var s = 0
    while (s < coresPerExecutor) { setSlot(e.id * coresPerExecutor + s, Double.PositiveInfinity); s += 1 }
  }

  def live: Seq[Executor] = executors.filter(_.removedAt.isInfinity).toSeq

  /** Executors that have arrived (or will have arrived) by `tMs` and are not
    * removed — what the DA policy sees as "current + inbound".
    */
  def executorsVisibleBy(tMs: Double): Int =
    executors.count(e => e.arrivalMs <= tMs && e.removedAt.isInfinity)

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
    val slot  = i - capacity
    val e     = executors(slot / coresPerExecutor)
    val s     = slot % coresPerExecutor
    val start = math.max(math.max(readyMs, e.arrivalMs), e.slotFreeAt(s))
    e.slotFreeAt(s) = start + costMs
    setSlot(slot, start + costMs)
    start + costMs
  }

  /** Build the skyline from executor lifetimes, clamped to the query window
    * `[0, endMs]`: executors whose allocation never materialized before the
    * query ended (in-flight requests) do not appear, and everything still
    * live is released at `endMs`.
    */
  def skyline(endMs: Double): Skyline = {
    val ds = executors.iterator
      .filter(_.arrivalMs < endMs)
      .flatMap { e =>
        val release = math.min(if (e.removedAt.isInfinity) endMs else e.removedAt, endMs)
        Seq((e.arrivalMs, +1), (release, -1))
      }
      .toIndexedSeq
    Skyline(ds, endMs)
  }
}
