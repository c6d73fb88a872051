package repro.exp

import repro.core.{PlanFeaturizer, PpmKind}
import repro.exp.CrossValidation.TrainedFold
import repro.ml.RandomForest

/** T8 — Figure 15 + §5.7: permutation feature importance of the parameter
  * models on the testing datasets, plus the F0–F3 feature-ablation study.
  *
  * Importance uses a variance-normalized parameter-space MSE (each PPM
  * parameter has a very different scale), matching scikit-learn's
  * R²-style scoring that the paper's permutation_importance defaults to.
  */
object ImportanceExperiment {

  final case class ImportanceResult(
      /** feature -> summed (over both models) average importance score. */
      scores: IndexedSeq[(String, Double)],
      perModel: Map[PpmKind, IndexedSeq[(String, Double)]],
  )

  def runImportance(
      workload: Workload,
      folds: IndexedSeq[TrainedFold],
      nRepeats: Int = 100,
      seed: Long = 5L,
  ): ImportanceResult = {
    val perModel = PpmKind.all.map { kind =>
      // Targets: the PPM parameters fitted on each query's label curve (the
      // ground truth the model was trained to predict), once per query and kind.
      val labels     = workload.queries.map(q => q.query.id -> kind.fit(q.labelCurve).params).toMap
      val perFeature = Array.fill(PlanFeaturizer.featureNames.size)(0.0)
      folds.zipWithIndex.foreach { case (fold, fi) =>
        val x = fold.testIds.map(id => workload.byId(id).features)
        val y = fold.testIds.map(labels)
        val stds = (0 until y.head.length).map { o =>
          val vals = y.map(_(o)); math.max(Metrics.stddev(vals), 1e-9)
        }
        val loss = (pred: IndexedSeq[Array[Double]], actual: IndexedSeq[Array[Double]]) => {
          var s = 0.0
          for (i <- pred.indices; o <- pred(i).indices) {
            val d = (pred(i)(o) - actual(i)(o)) / stds(o); s += d * d
          }
          s / pred.size
        }
        val imp = RandomForest.permutationImportance(
          fold.models(kind).forest, x, y, nRepeats, seed + fi, loss)
        imp.indices.foreach(i => perFeature(i) += imp(i) / folds.size)
      }
      kind -> PlanFeaturizer.featureNames.zip(perFeature.toIndexedSeq).sortBy(-_._2)
    }.toMap
    val summed = PlanFeaturizer.featureNames.map { f =>
      f -> perModel.values.map(_.find(_._1 == f).get._2).sum
    }.sortBy(-_._2)
    ImportanceResult(summed, perModel)
  }

  def reportImportance(r: ImportanceResult): String = TextTable.render(
    "T8a — top 10 features by AE_PL + AE_AL permutation importance (Figure 15)",
    Seq("rank", "measured feature", "score", "paper rank (Fig 15)"),
    {
      val paperTop = Seq("input_bytes", "rows_processed", "max_depth", "num_operators", "Project", "Filter")
      r.scores.take(10).zipWithIndex.map { case ((f, s), i) =>
        Seq((i + 1).toString, f, f"$s%.4f", if (i < paperTop.size) paperTop(i) else "—")
      }
    },
  )

  // ----- ablation ---------------------------------------------------------

  final case class AblationResult(
      /** (featureSetName, kind) -> E(n) at each grid n on testing datasets. */
      eByN: Map[(String, PpmKind), IndexedSeq[(Int, Double)]],
  )

  val FeatureSets: IndexedSeq[(String, IndexedSeq[String])] = IndexedSeq(
    "F0" -> PlanFeaturizer.F0,
    "F1" -> PlanFeaturizer.F1,
    "F2" -> PlanFeaturizer.F2,
    "F3" -> PlanFeaturizer.F3,
  )

  /** E(n) of each feature set on the test folds of a CV. `f0Folds` are
    * that CV's full-feature (F0) folds, which T3 has trained already; F1–F3
    * train their own on the same splits.
    */
  def runAblation(workload: Workload, f0Folds: IndexedSeq[TrainedFold]): AblationResult = {
    require(f0Folds.forall(_.featureSubset == PlanFeaturizer.F0), "f0Folds are not full-feature (F0) folds")
    val splits = f0Folds.map(f => (f.repeat, f.fold, f.trainIds, f.testIds))
    val e = for {
      (setName, subset) <- FeatureSets
      folds = if (subset == PlanFeaturizer.F0) f0Folds
              else CrossValidation.train(workload, PpmKind.all, splits, subset, RandomForest.Params())
      test  = PredictionExperiment.run(workload, folds).test
      kind <- PpmKind.all
    } yield (setName, kind) -> test.find(_.name == kind.name).get.byN.map { case (n, m, _) => n -> m }
    AblationResult(e.toMap)
  }

  def reportAblation(r: AblationResult): String = {
    val grid = r.eByN.head._2.map(_._1)
    val rows = for {
      kind            <- PpmKind.all.toIndexedSeq
      (setName, _)    <- FeatureSets
    } yield s"${kind.name}/$setName" +: r.eByN((setName, kind)).map { case (_, e) => TextTable.num3(e) }
    TextTable.render(
      "T8b — feature-ablation E(n) on testing datasets (§5.7)",
      "model/set" +: grid.map(n => s"E($n)"),
      rows,
    ) + TextTable.render(
      "T8c — paper reference at n=8 (§5.7)",
      Seq("model", "F0", "F1", "F2", "F3"),
      Seq(
        Seq("AE_PL (paper)", "0.27", "0.26", "0.35", "0.31"),
        Seq("AE_AL (paper)", "0.24", "0.24", "0.30", "0.27"),
      ),
    )
  }
}
