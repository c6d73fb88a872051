package perfbench

import java.nio.file.{Files, Path, Paths}
import scala.jdk.CollectionConverters._
import com.fasterxml.jackson.databind.ObjectMapper
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{PlanFeaturizer, PpmKind}
import repro.exp.{CrossValidation, QueryData, Workload, WorkloadRunner}
import repro.ml.RandomForest
import repro.tpcds.{Queries, TpcdsLite}

/** Self-tests of the benchmark's own code. Run from this directory with
  * `sbt test`.
  */
class PerfbenchSpec extends AnyFunSuite {

  private def tempDir(): Path = {
    val base = Files.createDirectories(Paths.get("target", "selftest"))
    Files.createTempDirectory(base, "run").toAbsolutePath
  }

  test("a fixture round trip reproduces the profile WorkloadRunner.profileQuery returned") {
    val work  = tempDir()
    val spark = Session.start(work)
    try {
      TpcdsLite.materialize(spark, 0.01, work.resolve("data"))
      val q        = Queries.oneVariantPerTemplate.find(_.templateId == "t01").get
      val profile  = WorkloadRunner.profileQuery(spark, q, "SF10", work.resolve("profiles"))
      val features = WorkloadRunner.withProfilingConfs(spark)(PlanFeaturizer.featurize(spark.sql(q.sql)))
      assert(profile.stages.nonEmpty)
      val path = work.resolve("fixture.txt")
      Fixture.write(Fixture("SF10", 0.01, Session.machine(Some(spark)), IndexedSeq(FixtureQuery(q, profile, features))), path)

      val back = Fixture.read(path, expectedIds = IndexedSeq(q.id))
      assert(back.queries.size == 1)
      assert(back.queries.head.profile == profile)
      assert(back.queries.head.features.sameElements(features))
      assert(back.machine("nproc") == Session.cores.toString)

      // The loader rejects a fixture whose ids or feature layout differ.
      intercept[IllegalArgumentException](Fixture.read(path))
      val narrowed = Files.readString(path).replace(",rows_processed\n", "\n")
      Files.writeString(path, narrowed)
      intercept[IllegalArgumentException](Fixture.read(path, expectedIds = IndexedSeq(q.id)))
    } finally Session.stop(spark)
  }

  test("the committed fixture holds all 103 queries in the current feature layout") {
    val f = Fixture.read(Paths.get("fixture", "sf100.txt"))
    assert(f.queries.map(_.query.id) == Queries.all.map(_.id))
    assert(f.queries.forall(q => q.profile.stages.nonEmpty && q.features.length == PlanFeaturizer.featureNames.size))
    assert(Set("nproc", "heap_max_mb", "spark").subsetOf(f.machine.keySet))
  }

  test("CV repeats trained one at a time, traced or not, match CrossValidation.trainFolds") {
    val fx = Fixture.read(Paths.get("fixture", "sf100.txt"))
    val w = Workload(fx.sfLabel, fx.sf, fx.queries.map { q =>
      QueryData(q.query, q.profile, q.features, IndexedSeq.empty, IndexedSeq.empty)
    })
    val seed   = 3L
    val full   = CrossValidation.trainFolds(w, PpmKind.all, OfflineEval.Folds, OfflineEval.Repeats, seed,
      rfParams = RandomForest.Params(seed = seed))
    val split  = (0 until OfflineEval.Repeats).flatMap(r => OfflineEval.trainRepeat(w, seed, r))
    val traced = (0 until OfflineEval.Repeats).flatMap(r => OfflineEval.tracedRepeat(w, seed, r, new Tracer(true)))
    def layout(fs: IndexedSeq[CrossValidation.TrainedFold]) = fs.map(f => (f.repeat, f.fold, f.trainIds, f.testIds))
    assert(layout(split) == layout(full))
    assert(layout(traced) == layout(full))
    for (fs <- Seq(split, traced); (a, b) <- fs.zip(full); k <- PpmKind.all; q <- w.queries)
      assert(a.models(k).forest.predict(q.features).sameElements(b.models(k).forest.predict(q.features)))
  }

  test("a tail percentile is reported only with at least 10 samples beyond it") {
    val xs = (1 to 999).map(_.toDouble)
    assert(Stats.tail(xs, 0.99).isEmpty)
    assert(Stats.tail(xs :+ 1000.0, 0.99).contains(990.0))
    assert(Stats.tail(IndexedSeq.empty, 0.5).isEmpty)
    assert(Stats.tail((1 to 20).map(_.toDouble), 0.5).contains(10.0))
    assert(Stats.median(Seq(3.0, 1.0, 2.0, 10.0)) == 2.5)
  }

  test("every metric name is well formed and BENCHMARK.json declares exactly these metrics") {
    val all = MetricNames.EndToEnd ++ MetricNames.PerLayer
    all.foreach { case (name, _) => assert(name.matches(MetricNames.NamePattern), name) }
    assert(all.map(_._1).distinct.size == all.size)
    val json = new ObjectMapper().readTree(Paths.get("..", "BENCHMARK.json").toFile)
    def declared(key: String) = json.get(key).elements().asScala.map(m => m.get("name").asText() -> m.get("unit").asText()).toSeq
    assert(declared("end_to_end") == MetricNames.EndToEnd)
    assert(declared("per_layer") == MetricNames.PerLayer)
    val workloads = json.get("workloads").elements().asScala.map(_.get("name").asText()).toSeq
    assert(workloads == Seq(LivePlan.Name, OfflineEval.Name))
  }
}
