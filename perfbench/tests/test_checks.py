import json
from pathlib import Path

from checks import check_step, compare_reference, load_reference
from run import END_TO_END
from tracer import LAYER_METRICS
from workloads import curve_values, observations, workload_steps

ROOT = Path(__file__).resolve().parents[2]


def _write_ber_csv(path, step, ber):
    lines = ["snr_db,scheme,ber,ci_halfwidth,trials"]
    for scheme in step.keys["schemes"]:
        for snr in step.keys["snr_grid_db"]:
            lines.append(f"{float(snr)!r},{scheme},{ber(scheme, snr)!r},0.01,{step.keys['trials']}")
    path.mkdir(parents=True, exist_ok=True)
    (path / "ber.csv").write_text("\n".join(lines) + "\n")


def _expected_ber(scheme, snr):
    return 0.2 / (1 + 10 ** (snr / 10))


def _reference(step, rows):
    obs = observations((step,), {step.name: rows})
    return {"z": 7.0, "seeds": list(range(20)), "values": {k: [v, 0.004] for k, (v, _) in obs.items()}}


def test_reference_check_accepts_noise_and_rejects_a_perturbed_csv(tmp_path):
    (step,) = workload_steps("ber_digital", 1)
    _write_ber_csv(tmp_path / "ref", step, _expected_ber)
    ref = _reference(step, check_step(step, tmp_path / "ref")[1])

    _write_ber_csv(tmp_path / "noisy", step, lambda s, x: _expected_ber(s, x) + 0.01)
    problems, rows = check_step(step, tmp_path / "noisy")
    assert problems == []
    obs = {k: v for k, (v, _) in observations((step,), {step.name: rows}).items()}
    assert compare_reference(obs, ref) == []

    _write_ber_csv(tmp_path / "bad", step,
                   lambda s, x: _expected_ber(s, x) + (0.1 if (s, x) == ("phase_projection", 0) else 0.0))
    problems, rows = check_step(step, tmp_path / "bad")
    assert problems == []
    obs = {k: v for k, (v, _) in observations((step,), {step.name: rows}).items()}
    assert [key for key, _ in compare_reference(obs, ref)] == ["ber:phase_projection@0"]


def test_curve_checks_reject_missing_rows_and_out_of_range_ber(tmp_path):
    (step,) = workload_steps("ber_digital", 1)
    _write_ber_csv(tmp_path, step, lambda s, x: 0.7 if x == -20 else 0.1)
    problems, _ = check_step(step, tmp_path)
    assert len(problems) == 3 and all("outside [0, 0.5" in p for p in problems)

    text = (tmp_path / "ber.csv").read_text().splitlines()
    (tmp_path / "ber.csv").write_text("\n".join(text[:-1]) + "\n")
    problems, rows = check_step(step, tmp_path)
    assert any("missing [('phase_projection', 10.0)]" in p for p in problems)
    assert len(curve_values(step, rows)) == 20


def test_missing_csv_is_a_problem(tmp_path):
    step = workload_steps("hybrid_curves", 2)[0]
    problems, rows = check_step(step, tmp_path)
    assert rows is None and problems == ["ber: ber.csv was not written"]


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(LAYER_METRICS)


def test_se_check_rejects_a_zeroed_network(tmp_path):
    step = workload_steps("hybrid_curves", 1)[2]
    ref = load_reference("hybrid_curves")["values"]

    def write(dnn_scale):
        lines = ["snr_db,scheme,bits_per_s_hz"]
        for scheme in step.keys["schemes"]:
            for snr in step.keys["snr_grid_db"]:
                mean = ref[f"se:{scheme}@{snr:g}"][0]
                lines.append(f"{float(snr)!r},{scheme},{mean * (dnn_scale if scheme == 'dnn_hybrid' else 1)!r}")
        (tmp_path / "se.csv").write_text("\n".join(lines) + "\n")
        return check_step(step, tmp_path)[0]

    assert write(1.0) == []
    (problem,) = write(0.0)
    assert "dnn_hybrid SE is 0.000 of phase_projection's" in problem
