package repro.exp

import repro.Par
import repro.core.{ParameterModel, PpmKind}
import repro.exp.CrossValidation.TrainedFold

/** T3 — Figures 4/9 + §5.2: prediction accuracy E(n) of AE_PL, AE_AL and
  * Sparklens on the 10-repeated 5-fold cross-validation, for both the
  * training (fit) and testing (prediction) datasets.
  */
object PredictionExperiment {

  /** E(n) mean ± std across folds, for one series at each grid n. */
  final case class Series(name: String, byN: IndexedSeq[(Int, Double, Double)])

  final case class Result(
      train: IndexedSeq[Series],
      test: IndexedSeq[Series],
      meanAbsGapToSparklens: Map[PpmKind, Double],
  )

  /** E(n) on the paper's grid, [[WorkloadRunner.Grid]]. */
  def run(workload: Workload, folds: IndexedSeq[TrainedFold]): Result = {
    val grid    = WorkloadRunner.Grid
    val queries = workload.queries
    val index   = queries.map(_.query.id).zipWithIndex.toMap
    def onGrid(curve: IndexedSeq[(Int, Double)]): Array[Double] = { val m = curve.toMap; grid.map(m).toArray }
    val actual = queries.map(q => onGrid(q.actual))

    // Curves by fold, then query index, then grid position; null for a
    // query outside the fold. Each (fold, kind) scores its queries once, in
    // one parallel fan-out; the E(n) sums below only look curves up.
    type Curves = IndexedSeq[Array[Array[Double]]]
    val kinds = IndexedSeq[PpmKind](PpmKind.PowerLaw, PpmKind.Amdahl)
    val scored = Par.tabulate(folds.size * kinds.size) { j =>
      val f      = folds(j / kinds.size)
      val curves = new Array[Array[Double]](queries.size)
      for (id <- f.trainIds ++ f.testIds) {
        val i = index(id)
        curves(i) = f.predict(kinds(j % kinds.size), queries(i), grid).map(_._2).toArray
      }
      curves
    }
    def modelCurves(c: Int): Curves = folds.indices.map(i => scored(i * kinds.size + c))
    val sparklens       = queries.map(q => onGrid(q.sparklens)).toArray
    val sCurves: Curves = folds.map(_ => sparklens)
    val plCurves        = modelCurves(0)
    val alCurves        = modelCurves(1)

    def series(name: String, ids: TrainedFold => Seq[String], curves: Curves): Series =
      Series(name, grid.indices.map { g =>
        val vals = folds.zip(curves).map { case (f, c) =>
          Metrics.eN(ids(f).map { id => val i = index(id); (c(i)(g), actual(i)(g)) })
        }
        (grid(g), Metrics.mean(vals), Metrics.stddev(vals))
      })

    val test = IndexedSeq(
      series("S", _.testIds, sCurves),
      series("AE_PL", _.testIds, plCurves),
      series("AE_AL", _.testIds, alCurves),
    )
    val train = IndexedSeq(
      series("S", _.trainIds, sCurves),
      series("AE_PL", _.trainIds, plCurves),
      series("AE_AL", _.trainIds, alCurves),
    )
    val sMean = test.head.byN.map { case (n, m, _) => n -> m }.toMap
    val gaps = kinds.map { kind =>
      val mSeries = test.find(_.name == kind.name).get
      kind -> Metrics.mean(mSeries.byN.map { case (n, m, _) => math.abs(m - sMean(n)) })
    }.toMap
    Result(train, test, gaps)
  }

  def report(r: Result): String = {
    def table(title: String, ss: Seq[Series]): String = TextTable.render(
      title,
      "series" +: ss.head.byN.map { case (n, _, _) => s"E($n)" },
      ss.map(s => s.name +: s.byN.map { case (_, m, sd) => f"$m%.3f±$sd%.3f" }),
    )
    table("T3a — E(n), training datasets (fit), 10x5-fold CV (Figure 9a)", r.train) +
      table("T3b — E(n), testing datasets (prediction), 10x5-fold CV (Figure 9b)", r.test) +
      TextTable.render(
        "T3c — mean |E(n) - E_Sparklens(n)| on testing datasets (§5.2)",
        Seq("model", "paper", "measured"),
        Seq(
          Seq("AE_PL", "0.079", TextTable.num3(r.meanAbsGapToSparklens(PpmKind.PowerLaw))),
          Seq("AE_AL", "0.094", TextTable.num3(r.meanAbsGapToSparklens(PpmKind.Amdahl))),
        ),
      )
  }
}

/** T7 — Figure 14 + §5.5: generalization across input-data sizes. Models are
  * trained on every query of one scale factor and tested on the other;
  * Sparklens reference estimates come from profiling runs at each SF.
  */
object CrossSfExperiment {

  final case class Result(testLabel: String, trainLabel: String, series: IndexedSeq[(String, IndexedSeq[(Int, Double)])])

  /** E(n) on the paper's grid, [[WorkloadRunner.Grid]]. */
  def run(train: Workload, test: Workload): Result = {
    val grid     = WorkloadRunner.Grid
    val examples = train.queries.map(q => ParameterModel.TrainingExample(q.query.id, q.features, q.labelCurve))
    val models   = PpmKind.all.map(k => k -> ParameterModel.train(k, examples)).toMap

    def eSeries(name: String, curveOf: QueryData => Map[Int, Double]): (String, IndexedSeq[(Int, Double)]) =
      name -> grid.map { n =>
        n -> Metrics.eN(test.queries.map(q => (curveOf(q)(n), q.actual.toMap.apply(n))))
      }

    val series = IndexedSeq(
      // Sparklens from the *test* SF profile (needs a run at that SF)...
      eSeries(s"S_${test.sfLabel}", q => q.sparklens.toMap),
      // ...and from the *training* SF profile of the same query (the paper's
      // observation: Sparklens cannot account for the data-size change).
      eSeries(s"S_${train.sfLabel}", q => train.byId(q.query.id).sparklens.toMap),
      eSeries("AE_PL", q => models(PpmKind.PowerLaw).predictPpm(q.features).curve(grid).toMap),
      eSeries("AE_AL", q => models(PpmKind.Amdahl).predictPpm(q.features).curve(grid).toMap),
    )
    Result(test.sfLabel, train.sfLabel, series)
  }

  def report(r: Result): String = TextTable.render(
    s"T7 — E(n), testing ${r.testLabel}, models trained on ${r.trainLabel} (Figure 14)",
    "series" +: r.series.head._2.map { case (n, _) => s"E($n)" },
    r.series.map { case (name, byN) => name +: byN.map { case (_, e) => TextTable.num3(e) } },
  )
}
