package repro.exp

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.core.PpmKind
import repro.sim.SparklensEstimator

class ImportanceExperimentSpec extends AnyFunSuite {

  /** The synthetic CV workload with Sparklens series on the paper grid and
    * "actual" times scattered around them.
    */
  private lazy val workload: Workload = {
    val r = new Random(11)
    val w = CrossValidationSpec.synthetic
    w.copy(queries = w.queries.map { q =>
      val s = SparklensEstimator.curve(q.profile, WorkloadRunner.Grid)
      q.copy(actual = s.map { case (n, t) => n -> t * (0.7 + 0.6 * r.nextDouble()) }, sparklens = s)
    })
  }

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
    val got = ImportanceExperiment.runAblation(workload, k = 5, repeats = 2, seed = 3).eByN
    val ref = referenceAblation(workload, k = 5, repeats = 2, seed = 3, WorkloadRunner.Grid)
    assert(got.keySet == ref.keySet)
    assert(got.keySet.size == ImportanceExperiment.FeatureSets.size * PpmKind.all.size)
    for ((key, byN) <- ref) {
      assert(byN.exists(_._2 > 0.0), key)
      assert(bits(got(key)) == bits(byN), key)
    }
  }
}
