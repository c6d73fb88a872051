package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ConfigSelector, PpmKind}
import repro.core.ConfigSelector.FullRange
import repro.exp.CrossValidation.TrainedFold
import repro.exp.SelectionExperiment.{ElbowResult, HValues, Methods, SlowdownCell, SlowdownResult}

object SelectionExperimentSpec {

  /** Reference: each experiment derives its own test curves, interpolating
    * Actual and Sparklens per occurrence, and `runSlowdown` re-derives the
    * Actual lookup and `t_min` in every (H, method) cell.
    */
  private final case class Curves(
      repeat: Int,
      queryId: String,
      actual: IndexedSeq[(Int, Double)],
      byMethod: Map[String, IndexedSeq[(Int, Double)]],
  )

  private def referenceCurves(workload: Workload, folds: IndexedSeq[TrainedFold]): IndexedSeq[Curves] =
    for {
      fold <- folds
      id   <- fold.testIds
    } yield {
      val q       = workload.byId(id)
      val actualI = ConfigSelector.interpolate(q.actual)
      Curves(fold.repeat, id, actualI, Map(
        "Actual" -> actualI,
        "S"      -> ConfigSelector.interpolate(q.sparklens),
        "AE_PL"  -> fold.predict(PpmKind.PowerLaw, q, FullRange),
        "AE_AL"  -> fold.predict(PpmKind.Amdahl, q, FullRange),
      ))
    }

  def referenceSlowdown(workload: Workload, folds: IndexedSeq[TrainedFold]): SlowdownResult = {
    val curves = referenceCurves(workload, folds)
    val cells = (for {
      h      <- HValues
      method <- Methods
    } yield {
      val perOccurrence = curves.map { c =>
        val sel      = ConfigSelector.limitedSlowdown(c.byMethod(method), h)
        val actualT  = c.actual.toMap
        val tMin     = c.actual.map(_._2).min
        val slowdown = actualT(sel) / tMin
        (c.repeat, slowdown, sel.toDouble)
      }
      val byRepeat = perOccurrence.groupBy(_._1).values.toIndexedSeq
      val repSlow  = byRepeat.map(g => Metrics.mean(g.map(_._2)))
      val repN     = byRepeat.map(g => Metrics.mean(g.map(_._3)))
      (h, method) -> SlowdownCell(Metrics.mean(repSlow), Metrics.stddev(repSlow), Metrics.mean(repN), Metrics.stddev(repN))
    }).toMap
    val speedups = (for {
      staticN <- Seq(2, 3, 8)
      method  <- Seq("AE_PL", "AE_AL")
    } yield {
      val vals = curves.map { c =>
        val sel     = ConfigSelector.limitedSlowdown(c.byMethod(method), 1.0)
        val actualT = c.actual.toMap
        actualT(staticN) / actualT(sel) - 1.0
      }
      (staticN, method) -> Metrics.mean(vals)
    }).toMap
    SlowdownResult(cells, speedups)
  }

  def referenceElbow(workload: Workload, folds: IndexedSeq[TrainedFold]): ElbowResult = {
    val curves  = referenceCurves(workload, folds)
    val repeats = folds.map(_.repeat).distinct.size.toDouble
    val hist = Methods.flatMap { m =>
      val ls = curves.map(c => ConfigSelector.elbow(c.byMethod(m)))
      ls.groupBy(identity).map { case (l, occ) => (m, l) -> occ.size / repeats }
    }.toMap
    val actualPerQuery = curves.groupBy(_.queryId).map { case (_, cs) => ConfigSelector.elbow(cs.head.actual) }
    ElbowResult(hist, actualPerQuery.count(_ < 8), actualPerQuery.size)
  }
}

class SelectionExperimentSpec extends AnyFunSuite {
  import CrossValidationSpec.withCurves
  import SelectionExperimentSpec._

  private lazy val folds = CrossValidation.trainFolds(withCurves, PpmKind.all, k = 5, repeats = 2, seed = 3)

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  test("testCurves gives every (fold, test query) its method curves over [1,48]") {
    val curves = SelectionExperiment.testCurves(withCurves, folds)
    assert(curves.map(c => (c.repeat, c.queryId)) == folds.flatMap(f => f.testIds.map(f.repeat -> _)))
    curves.foreach { c =>
      assert(c.byMethod.keySet == Methods.toSet)
      c.byMethod.values.foreach(curve => assert(curve.map(_._1) == FullRange, c.queryId))
      val q = withCurves.byId(c.queryId)
      assert(c.byMethod("Actual") eq q.actualFull, c.queryId)
      assert(c.byMethod("S") eq q.sparklensFull, c.queryId)
    }
  }

  test("actualFull and sparklensFull interpolate the grid series, derived once") {
    withCurves.queries.foreach { q =>
      val (a, s) = (q.actualFull, q.sparklensFull)
      assert(a == ConfigSelector.interpolate(q.actual) && s == ConfigSelector.interpolate(q.sparklens), q.query.id)
      assert((q.actualFull eq a) && (q.sparklensFull eq s), q.query.id)
    }
  }

  test("runSlowdown on shared test curves equals the per-call path bit for bit") {
    val got = SelectionExperiment.runSlowdown(SelectionExperiment.testCurves(withCurves, folds))
    val ref = referenceSlowdown(withCurves, folds)
    def cellBits(c: SlowdownCell) = Seq(c.meanSlowdown, c.stdSlowdown, c.meanN, c.stdN).map(bits)
    assert(got.cells.keySet == ref.cells.keySet && got.cells.size == HValues.size * Methods.size)
    ref.cells.foreach { case (key, c) => assert(cellBits(got.cells(key)) == cellBits(c), key) }
    assert(got.speedupVsStatic.keySet == ref.speedupVsStatic.keySet)
    ref.speedupVsStatic.foreach { case (key, s) => assert(bits(got.speedupVsStatic(key)) == bits(s), key) }
    // The synthetic curves make selection non-trivial: slowdowns above 1 occur.
    assert(ref.cells.values.exists(_.meanSlowdown > 1.0))
  }

  test("runElbow on shared test curves equals the per-call path bit for bit") {
    val got = SelectionExperiment.runElbow(SelectionExperiment.testCurves(withCurves, folds))
    val ref = referenceElbow(withCurves, folds)
    assert(got.histogram.keySet == ref.histogram.keySet)
    ref.histogram.foreach { case (key, w) => assert(bits(got.histogram(key)) == bits(w), key) }
    assert((got.actualBelow8, got.queries) == (ref.actualBelow8, ref.queries))
    assert(ref.queries == withCurves.queries.size)
  }
}
