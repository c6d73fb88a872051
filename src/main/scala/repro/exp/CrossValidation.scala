package repro.exp

import scala.util.Random
import repro.Par
import repro.core.{ParameterModel, PlanFeaturizer, PpmKind}
import repro.ml.RandomForest

/** 10-repeated 5-fold cross-validation over query ids (paper §5.1): each
  * repeat shuffles the queries into k folds; each fold's queries form the
  * test set while the rest train the parameter models, so no test query
  * ever appears in its own training set. The split is by id, not by
  * template: the variants of one template have identical plans and can sit
  * on both sides of a split (ROADMAP item 3 proposes grouping by template).
  */
object CrossValidation {

  /** One train/test split with the models trained on it. */
  final case class TrainedFold(
      repeat: Int,
      fold: Int,
      trainIds: IndexedSeq[String],
      testIds: IndexedSeq[String],
      models: Map[PpmKind, ParameterModel],
      featureSubset: IndexedSeq[String],
  ) {
    /** Predicted `t(n)` curve for a query (test or train) at grid `ns`. */
    def predict(kind: PpmKind, q: QueryData, ns: Seq[Int]): IndexedSeq[(Int, Double)] =
      models(kind).predictPpm(PlanFeaturizer.project(q.features, featureSubset)).curve(ns)
  }

  /** One (repeat, fold, train ids, test ids) split. */
  type Split = (Int, Int, IndexedSeq[String], IndexedSeq[String])

  /** Deterministic fold assignment: `repeats` shuffles of the id list, each
    * split into `k` near-equal folds.
    */
  def splits(ids: IndexedSeq[String], k: Int, repeats: Int, seed: Long): IndexedSeq[Split] = {
    require(k >= 2 && ids.size >= k, s"need at least k=$k queries, got ${ids.size}")
    (0 until repeats).flatMap { r =>
      val rng      = new Random(seed + r)
      val shuffled = rng.shuffle(ids)
      (0 until k).map { f =>
        val test  = shuffled.zipWithIndex.collect { case (id, i) if i % k == f => id }
        val train = shuffled.filterNot(test.contains)
        (r, f, train, test)
      }
    }
  }

  /** Train parameter models for every (repeat, fold) split of a
    * `repeats` × `k`-fold CV at `seed`.
    *
    * Labels come from PPM fits to each query's [[QueryData.labelCurve]]
    * (the paper's training-data augmentation, §4.1); features may be
    * restricted to a subset (ablation study, §5.7).
    */
  def trainFolds(
      workload: Workload,
      kinds: Seq[PpmKind],
      k: Int,
      repeats: Int,
      seed: Long,
      featureSubset: IndexedSeq[String] = PlanFeaturizer.featureNames,
      rfParams: RandomForest.Params = RandomForest.Params(),
  ): IndexedSeq[TrainedFold] =
    train(workload, kinds, splits(workload.queries.map(_.query.id), k, repeats, seed), featureSubset, rfParams)

  /** Train parameter models for every given split. */
  def train(workload: Workload, kinds: Seq[PpmKind], folds: IndexedSeq[Split], featureSubset: IndexedSeq[String],
      rfParams: RandomForest.Params): IndexedSeq[TrainedFold] = {
    val examples = folds.map { case (_, _, trainIds, _) =>
      trainIds.map { id =>
        val q = workload.byId(id)
        ParameterModel.TrainingExample(id, PlanFeaturizer.project(q.features, featureSubset), q.labelCurve)
      }
    }
    // Every (fold, kind) forest in one fan-out; model j is fold j / kinds.size.
    val models = Par.tabulate(folds.size * kinds.size) { j =>
      ParameterModel.train(kinds(j % kinds.size), examples(j / kinds.size), featureSubset, rfParams)
    }
    folds.zipWithIndex.map { case ((r, f, trainIds, testIds), i) =>
      val foldModels = kinds.indices.map(c => kinds(c) -> models(i * kinds.size + c)).toMap
      TrainedFold(r, f, trainIds, testIds, foldModels, featureSubset)
    }
  }
}

/** The paper's accuracy metric and small statistical helpers. */
object Metrics {

  /** E(n) (Eq. 6): ratio of summed absolute time errors to summed actual
    * times over a query set, at one executor count.
    */
  def eN(pairs: Seq[(Double, Double)]): Double = {
    require(pairs.nonEmpty, "E(n) over empty set")
    val num = pairs.map { case (pred, actual) => math.abs(pred - actual) }.sum
    val den = pairs.map(_._2).sum
    if (den == 0.0) 0.0 else num / den
  }

  def mean(xs: Seq[Double]): Double = xs.sum / xs.size

  def stddev(xs: Seq[Double]): Double = {
    val m = mean(xs)
    math.sqrt(xs.map(x => (x - m) * (x - m)).sum / xs.size)
  }
}
