package repro.exp

import repro.core.ConfigSelector
import repro.sim.ClusterSimulator

/** T1 — paper Table 1 + Figure 5c (§3.3): does the *total* core count
  * `k = n × e_c` predict run time regardless of how it factors into
  * executors and cores-per-executor?
  *
  * Every query is simulated under the paper's 13 configurations; for each
  * `e_c ≠ 4` configuration, its run time is compared against the
  * piecewise-linear interpolation (in `k`) of the `e_c = 4` series, giving
  * the paper's relative estimation error `1 - t_{e_c≠4} / t_{e_c=4}`.
  */
object TotalCoresExperiment {

  /** Paper Table 1: (cores/executor, executors) pairs. */
  val configs: IndexedSeq[(Int, Int)] = IndexedSeq(
    (2, 3), (2, 16),
    (4, 1), (4, 3), (4, 4), (4, 8), (4, 16), (4, 32), (4, 48),
    (6, 3), (6, 16),
    (8, 3), (8, 16),
  )

  val ec4Configs: IndexedSeq[(Int, Int)]    = configs.filter(_._1 == 4)
  val nonEc4Configs: IndexedSeq[(Int, Int)] = configs.filterNot(_._1 == 4)

  final case class Result(
      relativeErrors: IndexedSeq[Double],
      meanAbsError: Double,
      within10Pct: Double,
      within20Pct: Double,
  )

  /** Simulates every configuration with [[ClusterSimulator.actualCurve]]
    * at its defaults: 5 repetitions, the default fidelity.
    */
  def run(workload: Workload): Result = {
    val errors = workload.queries.flatMap { q =>
      // Measured time of every configuration, one actualCurve per e_c.
      val t = configs.groupMap(_._1)(_._2).flatMap { case (ec, ns) =>
        ClusterSimulator.actualCurve(q.profile, ns, ec).map { case (n, tn) => (ec, n) -> tn }
      }
      // e_c = 4 reference series, indexed by total cores k, interpolated.
      val refI = ConfigSelector.interpolate(ec4Configs.map { case (ec, n) => (n * ec, t((ec, n))) }).toMap
      nonEc4Configs.map { case (ec, n) => 1.0 - t((ec, n)) / refI(n * ec) }
    }
    Result(
      relativeErrors = errors,
      meanAbsError = Metrics.mean(errors.map(math.abs)),
      within10Pct = errors.count(e => math.abs(e) <= 0.10).toDouble / errors.size,
      within20Pct = errors.count(e => math.abs(e) <= 0.20).toDouble / errors.size,
    )
  }

  def report(r: Result): String = {
    val cfgTable = TextTable.render(
      "T1a — Table 1 configurations",
      Seq("Cores/Executor (e_c)", "Executors (n)", "Total Cores (k)"),
      configs.map { case (ec, n) => Seq(ec.toString, n.toString, (ec * n).toString) },
    )
    val stats = TextTable.render(
      "T1b — Figure 5c relative-error statistics (e_c != 4 vs interpolated e_c = 4)",
      Seq("metric", "paper", "measured"),
      Seq(
        Seq("mean |relative error|", "8.8%", TextTable.pct(r.meanAbsError)),
        Seq("points within [-10%, 10%]", "68.4%", TextTable.pct(r.within10Pct)),
        Seq("points within [-20%, 20%]", "92.9%", TextTable.pct(r.within20Pct)),
        Seq("points", "618", r.relativeErrors.size.toString),
      ),
    )
    cfgTable + stats
  }
}
