package repro.exp

import repro.core.{ConfigSelector, PpmKind}
import repro.core.ConfigSelector.FullRange
import repro.exp.CrossValidation.TrainedFold

/** T4 — §5.3 "Limited Slowdown" + T5 — Figure 11 "Elbow Point" selection.
  *
  * For each test-fold query, the Actual and Sparklens series are
  * piecewise-linearly interpolated onto all `n ∈ [1,48]` (as in the paper)
  * and model PPMs are evaluated directly on that range; selections are then
  * judged against the interpolated Actual curve.
  */
object SelectionExperiment {

  val HValues: IndexedSeq[Double] = IndexedSeq(1.0, 1.05, 1.1, 1.2, 1.5, 2.0)

  val Methods: IndexedSeq[String] = IndexedSeq("Actual", "S", "AE_PL", "AE_AL")

  /** Each method's curve over [[FullRange]] for one test occurrence. */
  final case class TestCurve(repeat: Int, queryId: String, byMethod: Map[String, IndexedSeq[(Int, Double)]])

  /** One [[TestCurve]] per (fold, test query), in fold order: T4 and T5
    * both read these.
    */
  def testCurves(workload: Workload, folds: IndexedSeq[TrainedFold]): IndexedSeq[TestCurve] =
    for {
      fold <- folds
      id   <- fold.testIds
    } yield {
      val q = workload.byId(id)
      TestCurve(fold.repeat, id, Map(
        "Actual" -> q.actualFull,
        "S"      -> q.sparklensFull,
        "AE_PL"  -> fold.predict(PpmKind.PowerLaw, q, FullRange),
        "AE_AL"  -> fold.predict(PpmKind.Amdahl, q, FullRange),
      ))
    }

  // ----- T4: limited slowdown -------------------------------------------

  /** For each H and method: realized slowdown (on Actual) and selected n,
    * averaged over test occurrences; std across the 10 repeats.
    */
  final case class SlowdownCell(meanSlowdown: Double, stdSlowdown: Double, meanN: Double, stdN: Double)
  final case class SlowdownResult(
      cells: Map[(Double, String), SlowdownCell],
      speedupVsStatic: Map[(Int, String), Double],
  )

  def runSlowdown(curves: IndexedSeq[TestCurve]): SlowdownResult = {
    // Each occurrence's Actual lookup and t_min, shared by every cell.
    val judged = curves.map { c =>
      val actual = c.byMethod("Actual")
      (c, actual.toMap, actual.map(_._2).min)
    }
    val cells = (for {
      h      <- HValues
      method <- Methods
    } yield {
      val perOccurrence = judged.map { case (c, actualT, tMin) =>
        val sel      = ConfigSelector.limitedSlowdown(c.byMethod(method), h)
        val slowdown = actualT(sel) / tMin
        (c.repeat, slowdown, sel.toDouble)
      }
      val byRepeat = perOccurrence.groupBy(_._1).values.toIndexedSeq
      val repSlow  = byRepeat.map(g => Metrics.mean(g.map(_._2)))
      val repN     = byRepeat.map(g => Metrics.mean(g.map(_._3)))
      (h, method) -> SlowdownCell(Metrics.mean(repSlow), Metrics.stddev(repSlow), Metrics.mean(repN), Metrics.stddev(repN))
    }).toMap

    // §5.3: speedup of the model-selected H=1 configuration over small
    // static allocations (t_static / t_selected - 1).
    val speedups = (for {
      staticN <- Seq(2, 3, 8)
      method  <- Seq("AE_PL", "AE_AL")
    } yield {
      val vals = judged.map { case (c, actualT, _) =>
        val sel = ConfigSelector.limitedSlowdown(c.byMethod(method), 1.0)
        actualT(staticN) / actualT(sel) - 1.0
      }
      (staticN, method) -> Metrics.mean(vals)
    }).toMap
    SlowdownResult(cells, speedups)
  }

  def reportSlowdown(r: SlowdownResult): String = {
    val slowRows = Methods.map { m =>
      m +: HValues.map { h =>
        val c = r.cells((h, m)); f"${c.meanSlowdown}%.2f±${c.stdSlowdown}%.2f"
      }
    }
    val nRows = Methods.map { m =>
      m +: HValues.map { h =>
        val c = r.cells((h, m)); f"${c.meanN}%.1f±${c.stdN}%.1f"
      }
    }
    val paperRef = Seq(
      Seq("paper slowdown @H=1", "S 1.054, AE_PL 1.055, AE_AL 1.089 (Actual 1.0 by construction)"),
      Seq("paper n @H=1", "Actual 24, S 32.9, AE_PL 21.5, AE_AL 48"),
      Seq("paper AE_PL slowdown H=1.05..2", "1.06, 1.06, 1.07, 1.12, 1.28 (n = 19.7, 18.2, 15.7, 10.7, 6.2)"),
      Seq("paper Actual slowdown H=1.05..2", "1.04, 1.08, 1.16, 1.38, 1.67 (n = 15.3, 12, 8.2, 4.9, 3.2)"),
    )
    TextTable.render("T4a — realized slowdown vs t_min by H (Figure 10a)", "method \\ H" +: HValues.map(_.toString), slowRows) +
      TextTable.render("T4b — selected executor count n by H (Figure 10b)", "method \\ H" +: HValues.map(_.toString), nRows) +
      TextTable.render("T4c — paper reference values (§5.3)", Seq("item", "value"), paperRef) +
      TextTable.render(
        "T4d — speedup of model-selected H=1 config over small static n (§5.3)",
        Seq("static n", "paper", "AE_PL", "AE_AL"),
        Seq(
          Seq("2 (8 cores)", "~160-170% (2.6-2.7x)", TextTable.pct(r.speedupVsStatic((2, "AE_PL"))), TextTable.pct(r.speedupVsStatic((2, "AE_AL")))),
          Seq("3 (12 cores)", "69-70%", TextTable.pct(r.speedupVsStatic((3, "AE_PL"))), TextTable.pct(r.speedupVsStatic((3, "AE_AL")))),
          Seq("8 (32 cores)", "12.6-13.8%", TextTable.pct(r.speedupVsStatic((8, "AE_PL"))), TextTable.pct(r.speedupVsStatic((8, "AE_AL")))),
        ),
      )
  }

  // ----- T5: elbow points ------------------------------------------------

  final case class ElbowResult(
      histogram: Map[(String, Int), Double],
      actualBelow8: Int,
      queries: Int,
  )

  def runElbow(curves: IndexedSeq[TestCurve]): ElbowResult = {
    val repeats = curves.map(_.repeat).distinct.size.toDouble
    // Per-method elbow counts, averaged over repeats (each query occurs once
    // per repeat across that repeat's 5 folds).
    val hist = Methods.flatMap { m =>
      val ls = curves.map(c => ConfigSelector.elbow(c.byMethod(m)))
      ls.groupBy(identity).map { case (l, occ) => (m, l) -> occ.size / repeats }
    }.toMap
    val actualPerQuery = curves.groupBy(_.queryId).map { case (_, cs) => ConfigSelector.elbow(cs.head.byMethod("Actual")) }
    ElbowResult(hist, actualPerQuery.count(_ < 8), actualPerQuery.size)
  }

  def reportElbow(r: ElbowResult): String = {
    val ls = r.histogram.keys.map(_._2).toIndexedSeq.distinct.sorted
    val rows = Methods.map { m =>
      m +: ls.map(l => r.histogram.get((m, l)).map(w => f"$w%.1f").getOrElse("0"))
    }
    TextTable.render("T5a — elbow-point distribution, queries per L (Figure 11)", "method \\ L" +: ls.map(_.toString), rows) +
      TextTable.render(
        "T5b — headline comparisons (§5.3)",
        Seq("item", "paper", "measured"),
        Seq(
          Seq("queries with Actual L < 8", "13 of 103", s"${r.actualBelow8} of ${r.queries}"),
          Seq("AE_AL elbow", "always L = 7", histSummary(r, "AE_AL")),
          Seq("Sparklens elbow", "all but one L = 8", histSummary(r, "S")),
          Seq("AE_PL elbow", "L in {8, 9, 10}", histSummary(r, "AE_PL")),
        ),
      )
  }

  private def histSummary(r: ElbowResult, method: String): String =
    r.histogram.collect { case ((m, l), w) if m == method => (l, w) }
      .toIndexedSeq.sortBy(_._1).map { case (l, w) => f"L=$l:$w%.1f" }.mkString(", ")
}
