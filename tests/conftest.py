"""Shared fixtures: a small trained teacher/student system and its pieces."""

import pytest

from purgekd import (CheckpointStore, ModelArch, SyntheticSpec, TrainHyper,
                     UnlearnRequest, apply_request, gen_synthetic, train_system)


@pytest.fixture
def small_dataset():
    """240 points, 3 classes, 5 features; comfortably separable."""
    return gen_synthetic(SyntheticSpec(num_classes=3, points_per_class=80,
                                       feature_dim=5, seed=7))


@pytest.fixture
def small_system(small_dataset, tmp_path):
    """A purge-mode system: M=4 teachers (2 slices each), N=2 students,
    c=2 chunks of r=2 slices, shared dataset."""
    arch = ModelArch("softmax_linear", 5, 3)
    return train_system(
        student_dataset=small_dataset,
        teacher_dataset=None,
        teacher_members=4,
        teacher_slices=2,
        student_constituents=2,
        slices_per_chunk=2,
        mode="purge",
        e_prime=8,
        teacher_arch=arch,
        student_arch=arch,
        teacher_hyper=TrainHyper(learning_rate=0.1, batch_size=32, seed=1),
        student_hyper=TrainHyper(learning_rate=0.1, batch_size=32, seed=2),
        store=CheckpointStore(tmp_path / "ckpt"),
        seed=11,
    )


@pytest.fixture
def streamed_system(small_system):
    """small_system after a student-side, a teacher-side and a simultaneous
    removal, in that order."""
    system = small_system
    apply_request(system, UnlearnRequest(
        1, "student_point", system.student.plan.slice_ids(1, 1, 1)[0]))
    apply_request(system, UnlearnRequest(
        2, "teacher_point", system.teacher.plan.slice_ids(3, 1, 2)[0]))
    both = next(p for p in system.student.plan.slice_ids(2, 2, 1)
                if p in system.teacher.plan)
    apply_request(system, UnlearnRequest(3, "simultaneous", both))
    return system


@pytest.fixture
def system_factory(tmp_path):
    """Builds fresh systems with overridable knobs, each in its own store."""
    counter = [0]

    def build(mode="purge", members=4, constituents=2, teacher_slices=2,
              slices_per_chunk=2, e_prime=8, seed=11, dataset=None,
              arch_kind="softmax_linear", hidden=None):
        counter[0] += 1
        if dataset is None:
            dataset = gen_synthetic(SyntheticSpec(
                num_classes=3, points_per_class=80, feature_dim=5, seed=7))
        arch = ModelArch(arch_kind, dataset.feature_dim, dataset.num_classes,
                         hidden)
        return train_system(
            student_dataset=dataset, teacher_dataset=None,
            teacher_members=members, teacher_slices=teacher_slices,
            student_constituents=constituents,
            slices_per_chunk=slices_per_chunk, mode=mode, e_prime=e_prime,
            teacher_arch=arch, student_arch=arch,
            teacher_hyper=TrainHyper(learning_rate=0.1, batch_size=32, seed=1),
            student_hyper=TrainHyper(learning_rate=0.1, batch_size=32, seed=2),
            store=CheckpointStore(tmp_path / f"ckpt{counter[0]}"),
            seed=seed)

    return build
