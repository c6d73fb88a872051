package repro.sim

import scala.collection.mutable
import scala.util.Random

/** Simulation of Spark's executor-allocation policies over a task profile —
  * the substrate for the paper's §5.4 skyline/AUC comparison (Figures 12/13).
  *
  * Three policies are modelled:
  *
  *   - [[DynamicAllocation.Static]]: all `n` executors held from submission
  *     to completion (the paper's SA).
  *   - [[DynamicAllocation.Dynamic]]: Spark dynamic allocation — start at
  *     `min`, and while tasks back up, request exponentially growing executor
  *     batches (1, 2, 4, …) after a backlog timeout; requested executors
  *     arrive gradually (allocation lag); idle executors are removed after an
  *     idle timeout (the paper's DA(1,48)).
  *   - [[DynamicAllocation.PredictiveRule]]: AutoExecutor's combination
  *     (§4.6) — a predictive request for the model-selected count made at
  *     optimization time, scale-*up* by DA disabled, idle-timeout scale-*down*
  *     retained (the paper's Rule).
  *
  * Time constants are scaled-down analogues of the paper's testbed, where
  * queries run minutes, full allocation takes 20–30 s and the DA idle timeout
  * is 60 s; our profiled queries run seconds, so lags scale proportionally.
  * The same constants are shared by every policy and query.
  */
object DynamicAllocation {

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
    * `ruleDelayMs` (the optimizer-rule invocation point), keep only DA's
    * idle-removal behaviour.
    */
  final case class PredictiveRule(
      initial: Int,
      target: Int,
      ruleDelayMs: Double = 50.0,
      params: DaParams = DaParams(),
  ) extends Policy

  /** Simulate `profile` under `policy`; returns elapsed time and the
    * executor skyline (from which peak `n` and AUC are read).
    */
  def simulate(
      profile: TaskProfile,
      policy: Policy,
      coresPerExecutor: Int = 4,
      fidelity: ClusterSimulator.Fidelity = ClusterSimulator.Fidelity(),
      seed: Long = 0L,
  ): ClusterSimulator.RunResult = {
    val pool = new ExecutorPool(coresPerExecutor)

    val (daParams, daScaleUp): (Option[DaParams], Boolean) = policy match {
      case Static(n) =>
        require(n >= 1, s"static allocation needs n >= 1, got $n")
        (0 until n).foreach(_ => pool.addExecutor(0.0))
        (None, false)
      case Dynamic(p) =>
        (0 until math.max(p.minExecutors, 1)).foreach(_ => pool.addExecutor(0.0))
        (Some(p), true)
      case PredictiveRule(initial, target, ruleDelay, p) =>
        require(initial >= 1, s"rule policy needs initial >= 1, got $initial")
        (0 until initial).foreach(_ => pool.addExecutor(0.0))
        // The predictive request: all missing executors asked for at rule
        // time, arriving gradually after the allocation lag.
        val missing = math.min(target, p.maxExecutors) - initial
        (0 until math.max(missing, 0)).foreach { i =>
          pool.addExecutor(ruleDelay + p.allocLagMs + i * p.perExecutorSpacingMs)
        }
        (Some(p), false)
    }

    val rng    = new Random(seed)
    val ecPen  = ClusterSimulator.ecPenalty(coresPerExecutor, fidelity.ecPenaltyCoeff)
    val finish = mutable.Map.empty[Int, Double]
    var prevJobEnd  = 0.0
    var curJob      = -1
    var jobEndSoFar = 0.0
    val driverHead  = 0.5 * profile.driverMs
    var appEnd      = driverHead

    for (stage <- profile.stages.sortBy(s => (s.jobIndex, s.stageId))) {
      if (stage.jobIndex != curJob) { prevJobEnd = jobEndSoFar; curJob = stage.jobIndex }
      val parentEnd = stage.parentIds.map(p => finish.getOrElse(p, 0.0)).foldLeft(0.0)(math.max)
      val ready     = math.max(driverHead, math.max(parentEnd, prevJobEnd))

      // Reactive scale-down: drop executors that have sat idle past the
      // timeout before this stage became ready (most-idle first), keeping
      // the configured minimum.
      removeIdle(pool, policy, daParams, until = ready)

      // Reactive scale-up (Dynamic only): exponential request rounds while
      // the stage's tasks exceed inbound capacity, following Spark's
      // dynamic-allocation ramp.
      if (daScaleUp) {
        val p      = daParams.get
        val needed = math.min(
          (stage.numTasks + coresPerExecutor - 1) / coresPerExecutor,
          p.maxExecutors,
        )
        var visible  = pool.executorsVisibleBy(Double.MaxValue)
        var reqTime  = ready + p.backlogTimeoutMs
        var batch    = 1
        while (visible < needed) {
          val add = math.min(batch, needed - visible)
          (0 until add).foreach { i =>
            pool.addExecutor(reqTime + p.allocLagMs + i * p.perExecutorSpacingMs)
          }
          visible += add
          batch *= 2
          reqTime += p.sustainedTimeoutMs
        }
      }

      val nExec = pool.executorsVisibleBy(Double.MaxValue)
      val fanIn = 1.0 + math.log1p(math.max(nExec - 1, 0).toDouble)
      val shufflePerTaskMb =
        if (stage.numTasks == 0) 0.0
        else stage.shuffleReadBytes.toDouble / stage.numTasks / (1024.0 * 1024.0)
      val shuffleExtraMs = shufflePerTaskMb * fidelity.shuffleFanInMsPerMb * fanIn
      val stageMb = (stage.shuffleReadBytes + stage.inputBytes).toDouble / (1024.0 * 1024.0)
      val spill   = ClusterSimulator.spillFactor(stageMb, nExec, fidelity)

      // Longest task first: an ascending primitive sort read backwards
      // (durations are never NaN, so this is the order of `sortBy(-_)`).
      val durations = stage.taskDurationsMs.toArray
      java.util.Arrays.sort(durations)
      var stageEnd = ready
      var t = durations.length - 1
      while (t >= 0) {
        val noise = math.exp(rng.nextGaussian() * fidelity.noiseSigma - fidelity.noiseSigma * fidelity.noiseSigma / 2)
        val cost  = durations(t) * noise * ecPen * spill + fidelity.taskLaunchOverheadMs + shuffleExtraMs
        val end   = pool.scheduleTask(ready, cost)
        stageEnd = math.max(stageEnd, end)
        t -= 1
      }
      finish(stage.stageId) = stageEnd
      jobEndSoFar = math.max(jobEndSoFar, stageEnd)
      appEnd = math.max(appEnd, stageEnd)
    }

    val elapsed = appEnd + (profile.driverMs - driverHead)
    // Idle removal also happens while trailing serial work runs (Spark's DA
    // monitors continuously, not only at stage starts) — apply it up to the
    // end of the app before the skyline is read.
    removeIdle(pool, policy, daParams, until = elapsed)
    ClusterSimulator.RunResult(elapsed, pool.skyline(elapsed))
  }

  /** Remove executors whose idle time exceeded the timeout strictly before
    * `until`, keeping the policy's floor. Most-idle executors go first and
    * each is removed at the moment its timeout actually expired.
    */
  private def removeIdle(
      pool: ExecutorPool,
      policy: Policy,
      daParams: Option[DaParams],
      until: Double,
  ): Unit = daParams.foreach { p =>
    val idleFloor = policy match {
      case _: PredictiveRule => 1 // rule keeps at least one executor alive
      case _                 => math.max(p.minExecutors, 1)
    }
    val removable = pool.live
      .filter(e => e.lastBusyMs + p.idleTimeoutMs <= until)
      .sortBy(_.lastBusyMs)
    for (e <- removable if pool.size > idleFloor)
      pool.removeExecutor(e, e.lastBusyMs + p.idleTimeoutMs)
  }
}
