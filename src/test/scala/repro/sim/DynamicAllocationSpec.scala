package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.sim.ClusterSimulator._

class DynamicAllocationSpec extends AnyFunSuite {

  private val exact = ClusterSimulator.Fidelity(
    taskLaunchOverheadMs = 0.0, shuffleFanInMsPerMb = 0.0, ecPenaltyCoeff = 0.0,
    noiseSigma = 0.0, spillCoeff = 0.0)

  private def stage(id: Int, durations: Seq[Double], parents: Seq[Int] = Nil, job: Int = 0): StageProfile =
    StageProfile(id, job, parents, durations.toIndexedSeq, 0L, 0L)

  private def profile(stages: StageProfile*): TaskProfile =
    TaskProfile("test", stages.toIndexedSeq, wallMs = 0.0, driverMs = 0.0)

  private val wide = profile(stage(0, (1 to 192).map(_ => 100.0)))

  /** Fast-reacting DA constants so short synthetic profiles behave like the
    * paper's minutes-long queries do under the real 1 s/60 s constants.
    */
  private val fastDa = DaParams(
    minExecutors = 1, maxExecutors = 48,
    backlogTimeoutMs = 10.0, sustainedTimeoutMs = 10.0,
    allocLagMs = 50.0, perExecutorSpacingMs = 2.0, idleTimeoutMs = 1000.0)

  /** A paper-shaped query: a wide scan (demands the DA cap), a narrower
    * middle stage (saturated at 48, fine at 16), and a long serial tail.
    */
  private val paperShaped = profile(
    stage(0, (1 to 200).map(_ => 200.0), job = 0),
    stage(1, (1 to 60).map(_ => 500.0), parents = Seq(0), job = 1),
    stage(2, Seq(4000.0), parents = Seq(1), job = 2),
  )

  test("dynamic allocation ramps up under backlog") {
    val r = simulate(wide, Dynamic(DaParams(minExecutors = 1, maxExecutors = 48)), fidelity = exact)
    assert(r.skyline.maxN > 1, "DA should have added executors")
    assert(r.skyline.maxN <= 48)
  }

  test("dynamic allocation never exceeds the executor demand") {
    // 8 tasks, e_c=4 → needed = 2 executors; DA must not go beyond.
    val p = profile(stage(0, (1 to 8).map(_ => 1000.0)))
    val r = simulate(p, Dynamic(DaParams(minExecutors = 1, maxExecutors = 48)), fidelity = exact)
    assert(r.skyline.maxN <= 2)
  }

  test("dynamic allocation is slower than equivalent static (allocation lag)") {
    val da = simulate(wide, Dynamic(DaParams(minExecutors = 1, maxExecutors = 48)), fidelity = exact)
    val sa = simulate(wide, Static(48), fidelity = exact)
    assert(da.elapsedMs > sa.elapsedMs)
  }

  test("dynamic allocation has lower AUC than SA(48) on a query with a serial tail") {
    // SA(48) holds 48 executors through the 4 s serial tail; DA idle-removes
    // them after the timeout.
    val da = simulate(paperShaped, Dynamic(fastDa), fidelity = exact)
    val sa = simulate(paperShaped, Static(48), fidelity = exact)
    assert(da.skyline.aucExecutorSeconds < sa.skyline.aucExecutorSeconds,
      s"DA=${da.skyline.aucExecutorSeconds} SA=${sa.skyline.aucExecutorSeconds}")
  }

  test("predictive rule reaches exactly the requested target") {
    // Long enough tasks that all requested executors arrive before the end.
    val longWide = profile(stage(0, (1 to 192).map(_ => 1000.0)))
    val r = simulate(longWide, PredictiveRule(initial = 2, target = 20), fidelity = exact)
    assert(r.skyline.maxN == 20)
  }

  test("predictive rule with target below initial keeps initial (no scale-up)") {
    val r = simulate(wide, PredictiveRule(initial = 2, target = 2), fidelity = exact)
    assert(r.skyline.maxN == 2)
  }

  test("rule's requested executors arrive after the allocation lag") {
    val p = profile(stage(0, Seq(10.0, 10.0))) // finishes before the lag expires
    val params = DaParams(allocLagMs = 100000.0)
    val r = simulate(p, PredictiveRule(initial = 1, target = 10, params = params), fidelity = exact)
    // Tasks ran on the single initial executor; inbound executors count
    // toward allocation (they were requested) but never ran a task.
    assert(r.elapsedMs <= 25.0)
  }

  test("idle executors are removed between distant jobs (scale-down)") {
    val p = profile(
      stage(0, (1 to 32).map(_ => 500.0), job = 0),
      // Driver gap is modelled via a long second job after a serial stage.
      stage(1, Seq(30000.0), parents = Seq(0), job = 1),
      stage(2, (1 to 4).map(_ => 10.0), parents = Seq(1), job = 2),
    )
    val params = DaParams(minExecutors = 1, maxExecutors = 8, idleTimeoutMs = 1000.0)
    val r = simulate(p, Dynamic(params), fidelity = exact)
    // During the 30 s serial stage, the extra executors sit idle far beyond
    // the timeout and must be dropped, producing a skyline dip.
    val counts = r.skyline.steps.map(_._2)
    assert(counts.max > 1)
    assert(counts.indexOf(counts.max) < counts.length - 1, "skyline should dip after the peak")
    assert(counts.last <= counts.max)
    assert(r.skyline.steps.exists { case (_, c) => c < counts.max })
  }

  test("rule policy keeps at least one executor alive under idle removal") {
    val p = profile(
      stage(0, Seq(100.0), job = 0),
      stage(1, Seq(50000.0), parents = Seq(0), job = 1),
    )
    val r = simulate(p, PredictiveRule(initial = 4, target = 4,
      params = DaParams(idleTimeoutMs = 500.0)), fidelity = exact)
    // All steps strictly inside the run keep >= 1 executor (the final step at
    // endMs is the app-shutdown release of the survivors).
    assert(r.skyline.steps.filter(_._1 < r.elapsedMs).forall(_._2 >= 1))
    assert(r.skyline.steps.exists(s => s._1 < r.elapsedMs && s._2 < 4), "idle executors were not removed")
  }

  test("rule policy holds one executor to the end when every executor idles past the timeout") {
    // The 3 requested executors arrive at 1.05 s, before the stage starts
    // at 1.5 s, and all finish its tasks at 1.6 s. The 1.5 s driver tail
    // then leaves every one idle past the 1 s timeout before the app ends.
    val p = TaskProfile("tail", IndexedSeq(stage(0, Seq.fill(12)(100.0))), wallMs = 0.0, driverMs = 3000.0)
    val r = simulate(p, PredictiveRule(initial = 1, target = 4, params = DaParams(allocLagMs = 1000.0)), fidelity = exact)
    assert(r.elapsedMs == 3100.0)
    // Two are removed when their timeout expires at 2.6 s; the third is
    // held until the app releases it.
    assert(r.skyline.steps.takeRight(2) == IndexedSeq((2600.0, 1), (3100.0, 0)))
  }

  test("AUC ordering on a paper-shaped query: Rule(16) < DA(1,48) < SA(48)") {
    // The wide first stage pushes DA to its 48 cap, which it then holds
    // through the saturated middle stage; Rule's prediction of 16 does the
    // same work with a third of the pool, and SA pays for 48 everywhere.
    val rule = simulate(paperShaped, PredictiveRule(initial = 2, target = 16, params = fastDa), fidelity = exact)
    val da   = simulate(paperShaped, Dynamic(fastDa), fidelity = exact)
    val sa   = simulate(paperShaped, Static(48), fidelity = exact)
    assert(rule.skyline.aucExecutorSeconds < da.skyline.aucExecutorSeconds,
      s"Rule=${rule.skyline.aucExecutorSeconds} DA=${da.skyline.aucExecutorSeconds}")
    assert(da.skyline.aucExecutorSeconds < sa.skyline.aucExecutorSeconds,
      s"DA=${da.skyline.aucExecutorSeconds} SA=${sa.skyline.aucExecutorSeconds}")
  }

  /** A fixed multi-stage profile with shuffle and scan bytes, driver time,
    * three jobs and a 2.5 s serial stage, so idle removal and re-allocation
    * both happen under the reactive policies.
    */
  private val pinned = {
    val r = new scala.util.Random(23)
    def durations(n: Int, lo: Double, span: Double) = (1 to n).map(_ => lo + r.nextDouble() * span)
    TaskProfile("pinned", IndexedSeq(
      StageProfile(0, 0, Nil, durations(150, 20, 180), 0L, 6L << 20),
      StageProfile(1, 0, Nil, durations(40, 10, 60), 0L, 1L << 20),
      StageProfile(2, 0, Seq(0, 1), durations(64, 30, 120), 12L << 20, 0L),
      StageProfile(4, 1, Seq(2), durations(9, 100, 50), 2L << 20, 0L),
      StageProfile(5, 1, Seq(4), durations(1, 2500, 0), 1L << 20, 0L),
      StageProfile(7, 2, Seq(5, 3), durations(96, 5, 40), 4L << 20, 0L),
    ), wallMs = 0.0, driverMs = 120.0)
  }

  private def bits(d: Double): String = java.lang.Long.toHexString(java.lang.Double.doubleToRawLongBits(d))

  /** Elapsed time and every skyline delta, as exact bit patterns. */
  private def runBits(r: ClusterSimulator.RunResult): String =
    (bits(r.elapsedMs) +: bits(r.skyline.endMs) +: r.skyline.deltas.map { case (t, d) => s"${bits(t)}:$d" }).mkString(",")

  private def sha256(s: String): String =
    java.security.MessageDigest.getInstance("SHA-256")
      .digest(s.getBytes(java.nio.charset.StandardCharsets.UTF_8)).map(b => f"${b & 0xff}%02x").mkString

  // Elapsed-time bits, skyline delta count and SHA-256 of `runBits` of each
  // policy on `pinned` with the default (noisy) fidelity at seed 3, as the
  // linear-scan scheduler computed them; they must not change.
  private val PinnedRuns = Seq(
    Static(5) ->
      ("40b1363864b7114a", 10, "cd3e3f527a323c2ae85029bffe1182d12f2cc3bf93b9611d7420ca45d87a55b8"),
    Dynamic() ->
      ("40ab3a944978d550", 122, "ee7156ac9b81fc3af4459210a3873f32f6dcd1ce289923831a2f594fa3ad47e9"),
    PredictiveRule(initial = 2, target = 20) ->
      ("40b11cb806d99a75", 40, "3c626c8a01c3235004a557bdd69437b8972105d08a2515882ade7f7054e7cef3"),
  )

  test("simulate keeps its pinned elapsed times and skylines, with noise on") {
    for ((policy, (elapsed, nDeltas, digest)) <- PinnedRuns) {
      val r = simulate(pinned, policy, seed = 3L)
      assert((bits(r.elapsedMs), r.skyline.deltas.size, sha256(runBits(r))) == ((elapsed, nDeltas, digest)), s"$policy")
    }
  }

  test("actualCurve keeps its pinned bits") {
    val curve = ClusterSimulator.actualCurve(pinned, Seq(1, 3, 8, 16, 32, 48), seed = 5L)
    assert(curve.map(c => s"${c._1}:${bits(c._2)}").mkString(",") ==
      "1:40d013e6d5a8f42a,3:40b82c6038ff0c4a,8:40ae455327526232,16:40ab0d720f00bc0d,32:40aa36f6c148b7b3,48:40aa37ab89d40f73")
  }

  test("static policy rejects n < 1") {
    intercept[IllegalArgumentException] { simulate(wide, Static(0), fidelity = exact) }
  }

  test("deterministic in the seed") {
    val fid = exact.copy(noiseSigma = 0.1)
    val a = simulate(wide, Dynamic(DaParams()), fidelity = fid, seed = 4).elapsedMs
    val b = simulate(wide, Dynamic(DaParams()), fidelity = fid, seed = 4).elapsedMs
    assert(a == b)
  }
}
