package repro.core

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files
import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.Sf100Fixture
import repro.exp.WorkloadRunner
import repro.ml.{RandomForest, RandomForestSpec, RegressionTree}
import repro.sim.SparklensEstimator

class ParameterModelSpec extends AnyFunSuite {

  /** Synthetic workload: feature f0 determines the Amdahl parameters. */
  private def examples(n: Int, seed: Long): IndexedSeq[ParameterModel.TrainingExample] = {
    val r = new Random(seed)
    (0 until n).map { i =>
      val scale = 1.0 + r.nextDouble() * 9.0
      val s = 10.0 * scale
      val p = 100.0 * scale
      val curve = IndexedSeq(1, 2, 4, 8, 16, 32, 48).map(k => k -> (s + p / k))
      ParameterModel.TrainingExample(s"q$i", Array(scale, r.nextDouble()), curve)
    }
  }

  private val names = IndexedSeq("scale", "noise")

  test("trains and predicts Amdahl parameters from features") {
    val model = ParameterModel.train(PpmKind.Amdahl, examples(80, 1), names,
      RandomForest.Params(nTrees = 30))
    val ppm = model.predictPpm(Array(5.0, 0.5)).asInstanceOf[AmdahlPpm]
    // True params for scale=5: s=50, p=500.
    assert(math.abs(ppm.s - 50.0) / 50.0 < 0.3, s"s=${ppm.s}")
    assert(math.abs(ppm.p - 500.0) / 500.0 < 0.3, s"p=${ppm.p}")
  }

  test("trains power-law models too") {
    val model = ParameterModel.train(PpmKind.PowerLaw, examples(60, 2), names,
      RandomForest.Params(nTrees = 20))
    val ppm = model.predictPpm(Array(5.0, 0.5))
    assert(ppm.time(1) > ppm.time(48)) // decreasing curve predicted
  }

  test("predicted curves are monotone non-increasing (model constraint §3.1)") {
    val model = ParameterModel.train(PpmKind.Amdahl, examples(50, 3), names,
      RandomForest.Params(nTrees = 10))
    for (probe <- Seq(Array(1.0, 0.1), Array(9.0, 0.9))) {
      val c = model.predictPpm(probe).curve(1 to 48)
      c.zip(c.tail).foreach { case ((_, a), (_, b)) => assert(b <= a + 1e-9) }
    }
  }

  test("one training point per query (parametric approach, §3.4)") {
    val ex    = examples(10, 4)
    val model = ParameterModel.train(PpmKind.Amdahl, ex, names, RandomForest.Params(nTrees = 5))
    // The forest's training data had exactly ex.size rows; verify indirectly:
    // a model trained on duplicated curves per config would have many more
    // distinct leaf values. Here we just assert the model exists and scores.
    assert(model.predictPpm(Array(2.0, 0.2)).params.length == 2)
  }

  test("save/load roundtrip preserves predictions") {
    val model = ParameterModel.train(PpmKind.PowerLaw, examples(30, 5), names,
      RandomForest.Params(nTrees = 5))
    val loaded = roundTrip(model)
    val probe  = Array(4.0, 0.4)
    assert(loaded.predictPpm(probe) == model.predictPpm(probe))
    assert(loaded.kind == PpmKind.PowerLaw)
  }

  private def roundTrip(model: ParameterModel): ParameterModel = {
    val path = Files.createTempFile("pm", ".txt")
    try { model.save(path); ParameterModel.load(path) }
    finally Files.delete(path)
  }

  for (kind <- PpmKind.all; seed <- Seq(3L, 7L))
    test(s"a ${kind.name} model trained on the SF100 fixture at seed $seed round-trips bit for bit") {
      val examples = Sf100Fixture.entries.map { e =>
        ParameterModel.TrainingExample(e.id, e.features, SparklensEstimator.curve(e.profile, WorkloadRunner.FitGrid))
      }
      assert(examples.size == 103)
      val model  = ParameterModel.train(kind, examples, rfParams = RandomForest.Params(seed = seed))
      val loaded = roundTrip(model)
      assert(loaded.kind == model.kind)
      assert(loaded.forest.featureNames == model.forest.featureNames)
      assert(loaded.forest.nOutputs == model.forest.nOutputs)
      assert(RandomForestSpec.structure(loaded.forest) == RandomForestSpec.structure(model.forest))
      examples.foreach(e => assert(loaded.forest.predict(e.features).sameElements(model.forest.predict(e.features)), e.queryId))
    }

  test("extreme thresholds and leaf values round-trip exactly") {
    import RegressionTree.{Leaf, Split}
    val tree = Split(0, -0.0,
      Leaf(Array(0.0, -0.0)),
      Split(1, Double.MinPositiveValue,
        Split(0, 1e300, Leaf(Array(1.0 / 3, Double.MaxValue)), Leaf(Array(-1e-300, 5e-324))),
        Leaf(Array(2.5, 1e300))))
    val model = ParameterModel(PpmKind.Amdahl, RandomForest(Vector(tree, Leaf(Array(7.0, 8.0))), names, 2))
    assert(RandomForestSpec.structure(roundTrip(model).forest) == RandomForestSpec.structure(model.forest))
  }

  /** A valid two-tree AE_AL model file; each malformed case below edits one line of it. */
  private val validFile =
    """repro-model 1
      |kind AE_AL
      |features scale,noise
      |outputs 2 trees 2
      |S 0 0.5 L 1.0,2.0 L 3.0,4.0
      |L 5.0,6.0
      |""".stripMargin

  private def loadText(text: String): ParameterModel = {
    val path = Files.createTempFile("pm", ".txt")
    try { Files.writeString(path, text, UTF_8); ParameterModel.load(path) }
    finally Files.delete(path)
  }

  test("a hand-written model file loads") {
    val m = loadText(validFile)
    assert(m.kind == PpmKind.Amdahl && m.forest.featureNames == names && m.forest.trees.size == 2)
    assert(m.forest.predict(Array(0.0, 0.0)).sameElements(Array(3.0, 4.0)))
    assert(m.forest.predict(Array(1.0, 0.0)).sameElements(Array(4.0, 5.0)))
  }

  for ((what, from, to) <- Seq(
    ("another magic", "repro-model 1", "repro-forest 1"),
    ("another version", "repro-model 1", "repro-model 2"),
    ("an unknown kind", "kind AE_AL", "kind AE_XX"),
    ("an output count other than the kind's parameter count", "outputs 2", "outputs 3"),
    ("a leaf of another width", "L 5.0,6.0", "L 5.0,6.0,7.0"),
    ("a split on a feature index past the feature count", "S 0 0.5", "S 2 0.5"),
    ("a truncated tree line", "S 0 0.5 L 1.0,2.0 L 3.0,4.0", "S 0 0.5 L 1.0,2.0"),
    ("tokens left over after a tree", "L 5.0,6.0", "L 5.0,6.0 L 7.0,8.0"),
    ("a tree count other than the header's", "trees 2", "trees 3"),
  )) test(s"load rejects $what") {
    assert(validFile.contains(from))
    intercept[IllegalArgumentException](loadText(validFile.replace(from, to)))
  }

  test("training on an empty workload is rejected") {
    intercept[IllegalArgumentException] {
      ParameterModel.train(PpmKind.Amdahl, IndexedSeq.empty, names)
    }
  }
}
