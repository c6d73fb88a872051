package repro.exp

import repro.Par
import repro.core.{ConfigSelector, PpmKind}
import repro.exp.CrossValidation.TrainedFold
import repro.sim.ClusterSimulator

/** T6 — Figures 12/13 + §5.4: cost savings of AutoExecutor's predictive
  * request (Rule) against Spark dynamic allocation DA(1,48) and static
  * allocation SA(48).
  *
  * Rule's executor count per query is the AE_PL prediction under the
  * H = 1.05 objective from one 5-fold cross-validation repeat, exactly as in
  * the paper; the skylines of all policies come from the allocation-policy
  * simulator over the query's task profile.
  */
object AllocationExperiment {

  final case class PolicyRun(elapsedMs: Double, maxN: Int, aucExecSec: Double)

  final case class QueryRow(
      queryId: String,
      predictedN: Int,
      rule: PolicyRun,
      da: PolicyRun,
      sa48: PolicyRun,
      fullyAllocated: Boolean,
  )

  final case class Result(rows: IndexedSeq[QueryRow]) {
    private def ratios(f: QueryRow => PolicyRun): (Double, Double, Double) = {
      val nR   = Metrics.mean(rows.map(r => f(r).maxN.toDouble / r.rule.maxN))
      val aucR = Metrics.mean(rows.map(r => f(r).aucExecSec / r.rule.aucExecSec))
      val tR   = Metrics.mean(rows.map(r => f(r).elapsedMs / r.rule.elapsedMs))
      (nR, aucR, tR)
    }
    def daRatios: (Double, Double, Double)   = ratios(_.da)
    def sa48Ratios: (Double, Double, Double) = ratios(_.sa48)
    /** Workload-level AUC saving: 1 - ΣAUC_rule / ΣAUC_other. */
    def aucSavingVsDa: Double   = 1.0 - rows.map(_.rule.aucExecSec).sum / rows.map(_.da.aucExecSec).sum
    def aucSavingVsSa48: Double = 1.0 - rows.map(_.rule.aucExecSec).sum / rows.map(_.sa48.aucExecSec).sum
    /** Mean slowdown of Rule relative to DA (paper: 4%). */
    def slowdownVsDa: Double = Metrics.mean(rows.map(r => r.rule.elapsedMs / r.da.elapsedMs)) - 1.0
  }

  /** Predicted Rule executor counts: each query is in exactly one test fold
    * of the chosen repeat; AE_PL curve evaluated on [1,48], H = 1.05.
    */
  def predictedCounts(workload: Workload, folds: IndexedSeq[TrainedFold], repeat: Int = 0, h: Double = 1.05): Map[String, Int] = {
    folds.filter(_.repeat == repeat).flatMap { fold =>
      fold.testIds.map { id =>
        val curve = fold.predict(PpmKind.PowerLaw, workload.byId(id), ConfigSelector.FullRange)
        id -> ConfigSelector.limitedSlowdown(curve, h)
      }
    }.toMap
  }

  /** Simulates each query under Rule, DA(1,48) and SA(48) with the default
    * [[ClusterSimulator.DaParams]] and [[ClusterSimulator.Fidelity]]. Rule's
    * app starts with 2 executors, or its predicted count if that is fewer.
    */
  def run(workload: Workload, predicted: Map[String, Int], seed: Long = 23L): Result = {
    // Queries are simulated in parallel; rows stay in workload order.
    val rows = Par.tabulate(workload.queries.size) { i =>
      val q     = workload.queries(i)
      val nPred = math.max(predicted(q.query.id), 1)
      def toRun(r: ClusterSimulator.RunResult) =
        PolicyRun(r.elapsedMs, r.skyline.maxN, r.skyline.aucExecutorSeconds)
      val rule = ClusterSimulator.simulate(
        q.profile, ClusterSimulator.PredictiveRule(initial = math.min(2, nPred), target = nPred), seed = seed)
      val da   = ClusterSimulator.simulate(q.profile, ClusterSimulator.Dynamic(), seed = seed)
      val sa48 = ClusterSimulator.simulate(q.profile, ClusterSimulator.Static(48), seed = seed)
      // ♣ in Figure 13: the run lasted long enough for the full predicted
      // count to be allocated.
      val fullyAllocated = rule.skyline.maxN >= nPred
      QueryRow(q.query.id, nPred, toRun(rule), toRun(da), toRun(sa48), fullyAllocated)
    }
    Result(rows)
  }

  def report(r: Result): String = {
    val (daN, daAuc, daT)   = r.daRatios
    val (saN, saAuc, saT)   = r.sa48Ratios
    TextTable.render(
      "T6 — DA(1,48) and SA(48) vs Rule (Figure 13 / §5.4)",
      Seq("metric", "paper", "measured"),
      Seq(
        Seq("avg n ratio  DA/Rule", "2.6", TextTable.num(daN)),
        Seq("avg AUC ratio DA/Rule", "2.1", TextTable.num(daAuc)),
        Seq("avg speedup  DA/Rule (t_DA/t_Rule)", "~0.96 (Rule 4% slower)", TextTable.num(daT)),
        Seq("avg n ratio  SA(48)/Rule", "3.5", TextTable.num(saN)),
        Seq("avg AUC ratio SA(48)/Rule", "4.9", TextTable.num(saAuc)),
        Seq("avg speedup  SA(48)/Rule (t_SA/t_Rule)", "~0.86 (Rule 16% slower)", TextTable.num(saT)),
        Seq("total AUC saved vs DA", "48%", TextTable.pct(r.aucSavingVsDa)),
        Seq("total AUC saved vs SA(48)", "73%", TextTable.pct(r.aucSavingVsSa48)),
        Seq("queries fully allocated (paper: 55 of 103 marked)", "55", r.rows.count(_.fullyAllocated).toString),
        Seq("mean predicted n (Rule)", "—", TextTable.num(Metrics.mean(r.rows.map(_.predictedN.toDouble)))),
      ),
    )
  }
}
