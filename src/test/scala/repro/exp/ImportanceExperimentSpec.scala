package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.core.PpmKind

class ImportanceExperimentSpec extends AnyFunSuite {
  import CrossValidationSpec.withCurves

  /** Reference: the ablation's own per-n loop, which scores every test query
    * of a fold once per grid point and averages E(n) over the folds.
    */
  private def referenceAblation(w: Workload, k: Int, repeats: Int, seed: Long, grid: IndexedSeq[Int]) =
    (for {
      (setName, subset) <- ImportanceExperiment.FeatureSets
      folds = CrossValidation.trainFolds(w, PpmKind.all, k, repeats, seed, featureSubset = subset)
      kind <- PpmKind.all
    } yield (setName, kind) -> grid.map { n =>
      n -> Metrics.mean(folds.map { fold =>
        Metrics.eN(fold.testIds.map { id =>
          val q = w.byId(id)
          (fold.predict(kind, q, grid).toMap.apply(n), q.actual.toMap.apply(n))
        })
      })
    }).toMap

  test("runAblation reads T3's test series: the per-n loop's E(n) bit for bit") {
    def bits(byN: IndexedSeq[(Int, Double)]) = byN.map { case (n, e) => n -> java.lang.Double.doubleToRawLongBits(e) }
    val f0  = CrossValidation.trainFolds(withCurves, PpmKind.all, k = 5, repeats = 2, seed = 3)
    val got = ImportanceExperiment.runAblation(withCurves, f0).eByN
    val ref = referenceAblation(withCurves, k = 5, repeats = 2, seed = 3, WorkloadRunner.Grid)
    assert(got.keySet == ref.keySet)
    assert(got.keySet.size == ImportanceExperiment.FeatureSets.size * PpmKind.all.size)
    for ((key, byN) <- ref) {
      assert(byN.exists(_._2 > 0.0), key)
      assert(bits(got(key)) == bits(byN), key)
    }
  }
}
