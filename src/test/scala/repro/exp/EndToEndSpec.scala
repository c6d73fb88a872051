package repro.exp

import java.nio.file.Files
import repro.SparkSpec
import repro.core.PpmKind
import repro.tpcds.Queries

/** Integration test of the full AutoExecutor pipeline on a miniature
  * workload: real local execution + profiling, Sparklens augmentation, PPM
  * label fitting, RF training, cross-validated prediction, configuration
  * selection, and the allocation-policy comparison.
  */
class EndToEndSpec extends SparkSpec {

  private lazy val workload: Workload = {
    val tmp = Files.createTempDirectory("e2e")
    WorkloadRunner.build(
      spark, sf = 0.002, sfLabel = "TEST",
      queries = Queries.oneVariantPerTemplate.take(10),
      dataDir = tmp.resolve("data"), cacheDir = tmp.resolve("profiles"),
      reps = 3,
    )
  }

  private lazy val folds =
    CrossValidation.trainFolds(workload, PpmKind.all, k = 5, repeats = 2, seed = 1)

  private lazy val curves = SelectionExperiment.testCurves(workload, folds)

  test("workload profiles all queries with non-trivial stages") {
    assert(workload.queries.size == 10)
    workload.queries.foreach { q =>
      assert(q.profile.stages.nonEmpty, s"${q.query.id} has no stages")
      assert(q.profile.stages.map(_.totalTaskMs).sum > 0.0, s"${q.query.id} has no task time")
    }
  }

  test("actual and sparklens curves are positive over the paper grid") {
    workload.queries.foreach { q =>
      assert(q.actual.map(_._1) == WorkloadRunner.Grid)
      assert(q.actual.forall(_._2 > 0.0))
      assert(q.sparklens.forall(_._2 > 0.0))
    }
  }

  test("sparklens estimates are monotone, actuals mostly decreasing") {
    workload.queries.foreach { q =>
      q.sparklens.zip(q.sparklens.tail).foreach { case ((_, a), (_, b)) => assert(b <= a + 1e-9) }
      // Actual curves may wiggle at large n, but n=1 must be the slowest.
      assert(q.actual.head._2 >= q.actual.map(_._2).min)
    }
  }

  test("cross-validation trains models for every fold and kind") {
    assert(folds.size == 10) // 2 repeats × 5 folds
    folds.foreach { f =>
      assert(f.models.keySet == PpmKind.all.toSet)
      assert(f.trainIds.size + f.testIds.size == 10)
    }
  }

  test("prediction experiment produces finite errors") {
    val r = PredictionExperiment.run(workload, folds)
    (r.train ++ r.test).foreach { s =>
      s.byN.foreach { case (n, m, sd) =>
        assert(!m.isNaN && m >= 0.0, s"${s.name} E($n)=$m")
        assert(!sd.isNaN)
      }
    }
    assert(r.meanAbsGapToSparklens.values.forall(g => g >= 0.0 && !g.isNaN))
  }

  test("prediction errors are largest at n=1 (paper §5.2 error structure)") {
    val r   = PredictionExperiment.run(workload, folds)
    val byN = r.test.find(_.name == "AE_PL").get.byN.map { case (n, m, _) => n -> m }.toMap
    assert(byN(1) >= byN(8) * 0.5, s"E(1)=${byN(1)} vs E(8)=${byN(8)}")
  }

  test("slowdown selection behaves like the paper's structure") {
    val r = SelectionExperiment.runSlowdown(curves)
    // AE_AL at H=1 always picks 48 (no saturation term).
    assert(r.cells((1.0, "AE_AL")).meanN == 48.0)
    // Actual at H=1 has no extra slowdown by construction.
    assert(math.abs(r.cells((1.0, "Actual")).meanSlowdown - 1.0) < 1e-9)
    // Larger H → fewer executors for every method.
    for (m <- SelectionExperiment.Methods) {
      val ns = SelectionExperiment.HValues.map(h => r.cells((h, m)).meanN)
      ns.zip(ns.tail).foreach { case (a, b) => assert(b <= a + 1e-9, s"$m: $ns") }
    }
  }

  test("elbow distribution matches the analytic AE_AL result") {
    val r = SelectionExperiment.runElbow(curves)
    val alLs = r.histogram.keys.collect { case ("AE_AL", l) => l }
    assert(alLs == Set(7), s"AE_AL elbows: $alLs")
  }

  test("allocation policies: Rule saves AUC vs DA and SA(48)") {
    val predicted = AllocationExperiment.predictedCounts(workload, folds, repeat = 0, h = 1.05)
    assert(predicted.keySet == workload.queries.map(_.query.id).toSet)
    val r = AllocationExperiment.run(workload, predicted)
    assert(r.aucSavingVsSa48 > 0.0, s"expected AUC saving vs SA(48), got ${r.aucSavingVsSa48}")
    assert(r.rows.forall(_.rule.maxN <= 48))
  }

  test("allocation rows come back in workload order") {
    val predicted = AllocationExperiment.predictedCounts(workload, folds, repeat = 1, h = 1.05)
    val r = AllocationExperiment.run(workload, predicted)
    assert(r.rows.map(_.queryId) == workload.queries.map(_.query.id))
    assert(r.rows.forall(row => row.predictedN == math.max(predicted(row.queryId), 1)))
  }

  test("overheads experiment reports sub-second scoring") {
    val r = OverheadsExperiment.run(workload, Some(spark))
    assert(r.scoreMs.values.forall(ms => ms > 0.0 && ms < 1000.0))
    assert(r.modelSizeBytes.values.forall(_ > 10000L))
    assert(r.ruleFeaturizationMs.nonEmpty && r.ruleScoringMs.nonEmpty)
  }

  test("feature table report renders") {
    val report = FeatureTableExperiment.report(workload)
    assert(report.contains("input_bytes"))
    assert(report.contains("rows_processed"))
  }
}
