package repro.sim

import java.lang.Double.doubleToRawLongBits
import scala.collection.mutable
import org.scalatest.funsuite.AnyFunSuite
import repro.sim.ClusterSimulator.{Fidelity, Static}

/** Simulator correctness on hand-built profiles where the exact schedule is
  * known. Noise/overheads are zeroed where exact equality is asserted.
  */
class ClusterSimulatorSpec extends AnyFunSuite {

  private val exact = ClusterSimulator.Fidelity(
    taskLaunchOverheadMs = 0.0, shuffleFanInMsPerMb = 0.0, ecPenaltyCoeff = 0.0,
    noiseSigma = 0.0, spillCoeff = 0.0)

  private def stage(id: Int, durations: Seq[Double], parents: Seq[Int] = Nil, job: Int = 0,
                    shuffleBytes: Long = 0L): StageProfile =
    StageProfile(id, job, parents, durations.toIndexedSeq, shuffleBytes, 0L)

  private def profile(stages: StageProfile*): TaskProfile =
    TaskProfile("test", stages.toIndexedSeq, wallMs = 0.0, driverMs = 0.0)

  /** The paper's measurement protocol (§5.1) at one `n`, run by run: `reps`
    * static runs with seeds `seed + 31 r`, outliers beyond ±1.5×IQR
    * discarded, mean of the rest. Kept as the sequential reference that
    * [[ClusterSimulator.actualCurve]] must match at every grid point.
    */
  private def measure(p: TaskProfile, n: Int, coresPerExecutor: Int = 4, fidelity: Fidelity = Fidelity(),
                      reps: Int = 5, seed: Long = 17L): Double =
    ClusterSimulator.meanWithoutOutliers((0 until reps).map(r =>
      ClusterSimulator.simulate(p, Static(n), coresPerExecutor, fidelity, seed + 31L * r).elapsedMs))

  test("single stage on one slot serializes all tasks") {
    val p = profile(stage(0, Seq(10.0, 20.0, 30.0)))
    val r = ClusterSimulator.simulate(p, Static(1), coresPerExecutor = 1, fidelity = exact)
    assert(math.abs(r.elapsedMs - 60.0) < 1e-9)
  }

  test("single stage with enough slots takes the longest task") {
    val p = profile(stage(0, Seq(10.0, 20.0, 30.0)))
    val r = ClusterSimulator.simulate(p, Static(1), coresPerExecutor = 4, fidelity = exact)
    assert(math.abs(r.elapsedMs - 30.0) < 1e-9)
  }

  test("LPT packing: 2 slots over {3,3,2,2,2} finishes in 7 (greedy LPT)") {
    // Greedy LPT: slots (3,3) → (5,5) → (7,5); optimal would be 6 but Spark's
    // scheduler is greedy too.
    val p = profile(stage(0, Seq(3.0, 3.0, 2.0, 2.0, 2.0)))
    val r = ClusterSimulator.simulate(p, Static(1), coresPerExecutor = 2, fidelity = exact)
    assert(math.abs(r.elapsedMs - 7.0) < 1e-9)
  }

  test("dependent stages run sequentially") {
    val p = profile(stage(0, Seq(10.0, 10.0)), stage(1, Seq(5.0), parents = Seq(0)))
    val r = ClusterSimulator.simulate(p, Static(2), coresPerExecutor = 1, fidelity = exact)
    assert(math.abs(r.elapsedMs - 15.0) < 1e-9)
  }

  test("independent stages in the same job share the pool concurrently") {
    val p = profile(stage(0, Seq(10.0)), stage(1, Seq(10.0)))
    val r = ClusterSimulator.simulate(p, Static(2), coresPerExecutor = 1, fidelity = exact)
    assert(math.abs(r.elapsedMs - 10.0) < 1e-9)
  }

  test("stages of a later job wait for the previous job (AQE barrier)") {
    val p = profile(stage(0, Seq(10.0), job = 0), stage(2, Seq(10.0), job = 1))
    val r = ClusterSimulator.simulate(p, Static(4), coresPerExecutor = 1, fidelity = exact)
    assert(math.abs(r.elapsedMs - 20.0) < 1e-9)
  }

  test("driver time is added to the makespan") {
    val p = TaskProfile("t", IndexedSeq(stage(0, Seq(10.0))), wallMs = 0.0, driverMs = 100.0)
    val r = ClusterSimulator.simulate(p, Static(1), coresPerExecutor = 1, fidelity = exact)
    assert(math.abs(r.elapsedMs - 110.0) < 1e-9)
  }

  test("a parent in a skipped stage (absent from profile) is ready at time 0") {
    val p = profile(stage(1, Seq(10.0), parents = Seq(99)))
    val r = ClusterSimulator.simulate(p, Static(1), coresPerExecutor = 1, fidelity = exact)
    assert(math.abs(r.elapsedMs - 10.0) < 1e-9)
  }

  test("elapsed time is monotonically non-increasing in n without noise") {
    val p = profile(stage(0, (1 to 100).map(i => (i % 7 + 1) * 10.0)),
                    stage(1, (1 to 40).map(_ => 25.0), parents = Seq(0)))
    val times = Seq(1, 2, 4, 8, 16, 32).map(n =>
      ClusterSimulator.simulate(p, Static(n), 4, exact).elapsedMs)
    times.zip(times.tail).foreach { case (a, b) => assert(b <= a + 1e-6) }
  }

  test("per-task launch overhead penalizes small n more than large n") {
    // Mixed durations: serially, every task's overhead accumulates; at full
    // parallelism only the longest task's overhead is visible.
    val p     = profile(stage(0, (1 to 64).map(i => (i % 5 + 1) * 10.0)))
    val over  = exact.copy(taskLaunchOverheadMs = 5.0)
    val t1o   = ClusterSimulator.simulate(p, Static(1), 1, over).elapsedMs
    val t1    = ClusterSimulator.simulate(p, Static(1), 1, exact).elapsedMs
    val t64o  = ClusterSimulator.simulate(p, Static(16), 4, over).elapsedMs
    val t64   = ClusterSimulator.simulate(p, Static(16), 4, exact).elapsedMs
    assert((t1o - t1) / t1 > (t64o - t64) / t64)
  }

  test("shuffle fan-in cost grows with executor count") {
    val mb = 1024L * 1024L
    val p  = profile(stage(0, (1 to 32).map(_ => 10.0), shuffleBytes = 320 * mb))
    val fan = exact.copy(shuffleFanInMsPerMb = 1.0)
    // Compare per-task extra: same slot count, different executor counts.
    val few  = ClusterSimulator.simulate(p, Static(2), coresPerExecutor = 8, fidelity = fan).elapsedMs
    val many = ClusterSimulator.simulate(p, Static(16), coresPerExecutor = 1, fidelity = fan).elapsedMs
    assert(many > few)
  }

  test("spill factor is 1.0 when the stage fits in aggregate memory") {
    val fid = exact.copy(spillCoeff = 0.3, executorMemoryMb = 1.0)
    assert(ClusterSimulator.spillFactor(stageMb = 0.5, executors = 1, fid) == 1.0)
    assert(ClusterSimulator.spillFactor(stageMb = 8.0, executors = 16, fid) == 1.0)
    assert(ClusterSimulator.spillFactor(stageMb = 0.0, executors = 1, fid) == 1.0)
  }

  test("spill factor grows logarithmically with memory overflow") {
    val fid = exact.copy(spillCoeff = 0.3, executorMemoryMb = 1.0)
    val f2 = ClusterSimulator.spillFactor(stageMb = 2.0, executors = 1, fid)
    val f8 = ClusterSimulator.spillFactor(stageMb = 8.0, executors = 1, fid)
    assert(math.abs(f2 - 1.3) < 1e-9) // log2(2) = 1
    assert(math.abs(f8 - 1.9) < 1e-9) // log2(8) = 3
  }

  test("spill vanishes as executors (aggregate memory) grow") {
    val fid = exact.copy(spillCoeff = 0.3, executorMemoryMb = 1.0)
    val fs = Seq(1, 2, 4, 8, 16).map(n => ClusterSimulator.spillFactor(8.0, n, fid))
    fs.zip(fs.tail).foreach { case (a, b) => assert(b <= a) }
    assert(fs.last == 1.0)
  }

  test("spillCoeff = 0 disables memory-pressure modelling") {
    assert(ClusterSimulator.spillFactor(100.0, 1, exact) == 1.0)
  }

  test("spill makes small-n runs slower relative to Sparklens-style scaling") {
    val mb = 1024L * 1024L
    val p = profile(StageProfile(0, 0, Nil, (1 to 64).map(_ => 100.0), 8 * mb, 0L))
    val fid  = exact.copy(spillCoeff = 0.3, executorMemoryMb = 1.0)
    val t1   = ClusterSimulator.simulate(p, Static(1), 4, fid).elapsedMs
    val t16  = ClusterSimulator.simulate(p, Static(16), 4, fid).elapsedMs
    val t1x  = ClusterSimulator.simulate(p, Static(1), 4, exact).elapsedMs
    val t16x = ClusterSimulator.simulate(p, Static(16), 4, exact).elapsedMs
    assert(t1 / t1x > t16 / t16x, "spill should penalize n=1 more than n=16")
  }

  test("e_c penalty is 1.0 at the reference e_c = 4 and grows away from it") {
    assert(ClusterSimulator.ecPenalty(4, 0.1) == 1.0)
    assert(ClusterSimulator.ecPenalty(2, 0.1) > 1.0)
    assert(ClusterSimulator.ecPenalty(8, 0.1) > 1.0)
    assert(ClusterSimulator.ecPenalty(16, 0.1) > ClusterSimulator.ecPenalty(8, 0.1))
  }

  test("noise makes runs vary but measurement averages converge") {
    val p  = profile(stage(0, (1 to 50).map(_ => 20.0)))
    val fid = exact.copy(noiseSigma = 0.1)
    val a  = ClusterSimulator.simulate(p, Static(4), 4, fid, seed = 1).elapsedMs
    val b  = ClusterSimulator.simulate(p, Static(4), 4, fid, seed = 2).elapsedMs
    assert(a != b)
    val exactT = ClusterSimulator.simulate(p, Static(4), 4, exact).elapsedMs
    val avg    = measure(p, 4, 4, fid, reps = 15)
    assert(math.abs(avg - exactT) / exactT < 0.1)
  }

  test("simulation is deterministic in the seed") {
    val p   = profile(stage(0, (1 to 30).map(_ => 15.0)))
    val fid = exact.copy(noiseSigma = 0.2)
    val a   = ClusterSimulator.simulate(p, Static(3), 4, fid, seed = 9).elapsedMs
    val b   = ClusterSimulator.simulate(p, Static(3), 4, fid, seed = 9).elapsedMs
    assert(a == b)
  }

  test("meanWithoutOutliers discards points outside 1.5 IQR") {
    val xs = IndexedSeq(10.0, 11.0, 9.0, 10.5, 9.5, 100.0)
    val m  = ClusterSimulator.meanWithoutOutliers(xs)
    assert(m < 12.0, s"outlier should be discarded, got $m")
  }

  test("meanWithoutOutliers of a constant series is the constant") {
    assert(ClusterSimulator.meanWithoutOutliers(IndexedSeq(5.0, 5.0, 5.0)) == 5.0)
  }

  test("actualCurve returns one time per grid point") {
    val p = profile(stage(0, (1 to 64).map(_ => 10.0)))
    val c = ClusterSimulator.actualCurve(p, Seq(1, 3, 8), fidelity = exact, reps = 2)
    assert(c.map(_._1) == Seq(1, 3, 8))
    assert(c.forall(_._2 > 0.0))
  }

  test("actualCurve equals measure at every grid point, bit for bit") {
    val r = new scala.util.Random(5)
    val p = profile(
      stage(0, (1 to 96).map(_ => 5.0 + r.nextDouble() * 40), shuffleBytes = 0L),
      stage(1, (1 to 192).map(_ => 2.0 + r.nextDouble() * 10), parents = Seq(0), shuffleBytes = 8L << 20),
      stage(2, (1 to 7).map(_ => 30.0 + r.nextDouble() * 5), parents = Seq(1), job = 1, shuffleBytes = 1L << 20),
    )
    val grid = Seq(1, 3, 8, 16, 32, 48)
    for (reps <- Seq(1, 4, 5)) {
      val curve = ClusterSimulator.actualCurve(p, grid, reps = reps, seed = 11L)
      val each  = grid.map(n => n -> measure(p, n, reps = reps, seed = 11L))
      assert(curve.map(_._1) == grid)
      assert(curve.map(c => java.lang.Double.doubleToRawLongBits(c._2)) ==
        each.map(c => java.lang.Double.doubleToRawLongBits(c._2)), s"reps=$reps")
    }
  }

  /** The slot search [[ExecutorPool.scheduleTask]] replaced: a scan of every
    * live executor's slots for the earliest start, the first minimum
    * winning. Kept as the reference the pool must match.
    */
  private final class ScanPool(cores: Int) {
    val arrival = mutable.ArrayBuffer.empty[Double]
    val freeAt  = mutable.ArrayBuffer.empty[Array[Double]]
    val removed = mutable.ArrayBuffer.empty[Boolean]

    def add(arrivalMs: Double): Unit = { arrival += arrivalMs; freeAt += Array.fill(cores)(arrivalMs); removed += false }

    /** Place one task; returns its executor, slot and finish time. */
    def schedule(readyMs: Double, costMs: Double): (Int, Int, Double) = {
      var bestExec = -1
      var bestSlot = -1
      var bestStart = Double.PositiveInfinity
      for (e <- arrival.indices if !removed(e)) {
        var s = 0
        while (s < cores) {
          val start = math.max(math.max(readyMs, arrival(e)), freeAt(e)(s))
          if (start < bestStart) { bestStart = start; bestExec = e; bestSlot = s }
          s += 1
        }
      }
      freeAt(bestExec)(bestSlot) = bestStart + costMs
      (bestExec, bestSlot, bestStart + costMs)
    }
  }

  test("scheduleTask picks the linear scan's slot and finish time, bit for bit") {
    val r = new scala.util.Random(13)
    var maxSlots = 0
    for (trial <- 0 until 200) {
      val cores = Seq(1, 2, 4, 8)(trial % 4)
      val pool  = new ExecutorPool(cores)
      val ref   = new ScanPool(cores)
      def add(arrivalMs: Double): Unit = { pool.addExecutors(1, arrivalMs, 0.0); ref.add(arrivalMs) }
      (0 until 1 + r.nextInt(6)).foreach(_ => add(0.0))
      // Every fifth pool is static; the others add executors, some arriving
      // later (the rule's inbound requests), and remove live ones.
      val static = trial % 5 == 0
      var now = 0.0
      for (step <- 0 until 400) {
        val op = r.nextInt(20)
        if (!static && op < 2) add(now + r.nextInt(4) * 5.0)
        else if (!static && op == 2 && pool.size > 1) {
          val live = ref.arrival.indices.filter(e => !ref.removed(e))
          val e    = live(r.nextInt(live.size))
          pool.removeExecutor(e, now)
          ref.removed(e) = true
        } else {
          // Times on a 2.5 ms grid, so ties at `ready` and between slots are common.
          now += r.nextInt(3) * 2.5
          val ready  = now - r.nextInt(3) * 2.5
          val cost   = (1 + r.nextInt(8)) * 2.5
          val finish = pool.scheduleTask(ready, cost)
          val (e, s, expected) = ref.schedule(ready, cost)
          assert(doubleToRawLongBits(finish) == doubleToRawLongBits(expected), s"trial $trial step $step")
          assert(doubleToRawLongBits(pool.slotFreeAt(e, s)) == doubleToRawLongBits(expected), s"trial $trial step $step")
          // A removed executor's slots are +∞ in the pool's one record.
          assert(ref.arrival.indices.forall(i => (0 until cores).forall { s =>
            val want = if (ref.removed(i)) Double.PositiveInfinity else ref.freeAt(i)(s)
            doubleToRawLongBits(pool.slotFreeAt(i, s)) == doubleToRawLongBits(want)
          }), s"trial $trial step $step")
        }
        maxSlots = math.max(maxSlots, ref.arrival.size * cores)
      }
      assert(pool.size == ref.removed.count(!_))
    }
    assert(maxSlots > 256, "no pool grew large")
  }

  test("static skyline reflects the allocation") {
    val p = profile(stage(0, Seq(10.0)))
    val r = ClusterSimulator.simulate(p, Static(7), coresPerExecutor = 4, fidelity = exact)
    assert(r.skyline.maxN == 7)
    assert(math.abs(r.skyline.aucExecutorSeconds - 7 * r.elapsedMs / 1000.0) < 1e-9)
  }
}
