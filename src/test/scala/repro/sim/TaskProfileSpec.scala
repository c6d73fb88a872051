package repro.sim

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files
import org.scalatest.funsuite.AnyFunSuite
import repro.Sf100Fixture

class TaskProfileSpec extends AnyFunSuite {

  private def roundTrip(p: TaskProfile): TaskProfile = {
    val path = Files.createTempFile("profile", ".txt")
    try { p.save(path); TaskProfile.load(path) }
    finally Files.delete(path)
  }

  test("every SF100 fixture profile round-trips through save and load") {
    val profiles = Sf100Fixture.entries.map(_.profile)
    assert(profiles.size == 103)
    profiles.foreach(p => assert(roundTrip(p) == p, p.queryId))
  }

  test("empty parent and task lists and extreme doubles round-trip") {
    val p = TaskProfile("q1", IndexedSeq(
      StageProfile(0, 0, Nil, IndexedSeq.empty, 0L, Long.MaxValue),
      StageProfile(3, 1, Seq(0, 1, 2), IndexedSeq(Double.MinPositiveValue, 1e300, 1.0 / 3), 7L, 0L)),
      wallMs = 12.5, driverMs = -0.0)
    val back = roundTrip(p)
    assert(back == p)
    assert(back.stages(1).taskDurationsMs.map(java.lang.Double.doubleToRawLongBits) ==
      p.stages(1).taskDurationsMs.map(java.lang.Double.doubleToRawLongBits))
    assert(java.lang.Double.doubleToRawLongBits(back.driverMs) == java.lang.Double.doubleToRawLongBits(-0.0))
  }

  private val validFile =
    """repro-profile 1
      |query q7 100.0 20.0 2
      |stage 0 0 - 0 4096 10.0,12.0
      |stage 1 0 0 4096 0 5.0
      |""".stripMargin

  private def loadText(text: String): TaskProfile = {
    val path = Files.createTempFile("profile", ".txt")
    try { Files.writeString(path, text, UTF_8); TaskProfile.load(path) }
    finally Files.delete(path)
  }

  test("a hand-written profile file loads") {
    val p = loadText(validFile)
    assert(p == TaskProfile("q7", IndexedSeq(
      StageProfile(0, 0, Nil, IndexedSeq(10.0, 12.0), 0L, 4096L),
      StageProfile(1, 0, Seq(0), IndexedSeq(5.0), 4096L, 0L)), wallMs = 100.0, driverMs = 20.0))
  }

  for ((what, from, to) <- Seq(
    ("another magic", "repro-profile 1", "repro-model 1"),
    ("another version", "repro-profile 1", "repro-profile 2"),
    ("a stage count other than the header's", "20.0 2", "20.0 3"),
    ("a stage line with a missing field", "stage 1 0 0 4096 0 5.0", "stage 1 0 0 4096 5.0"),
  )) test(s"load rejects $what") {
    assert(validFile.contains(from))
    intercept[IllegalArgumentException](loadText(validFile.replace(from, to)))
  }
}
