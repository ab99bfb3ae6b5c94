"""
=============================================
Task embeddings and similarity-based selection
=============================================

Infers a Dirichlet embedding for every task under a trained model, then uses
KL divergence between embeddings to pick, for a batch of new tasks, the most
related tasks from the training pool.
"""

import numpy as np

from ldcc.data import generate_synthetic
from ldcc.inference import run_estep
from ldcc.learning import train
from ldcc.model import ThemeModel, TrainConfig
from ldcc.similarity import distance_matrix, select_tasks

planted = ThemeModel(
    mu=np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]]),
    sigma=np.stack([np.eye(2)] * 3),
    alpha=np.array([[6.0, 1.0, 1.0], [1.0, 1.0, 6.0]]),
    delta=np.array([0.01, 0.01]),
)

train_tasks, latents = generate_synthetic(planted, 100, 5, 16, seed=11)
print("Training on 100 tasks...")
config = TrainConfig(batch_size=25, max_batches=40, seed=0)
model, _ = train(train_tasks, 2, 3, config)

embed = lambda tasks: np.vstack(
    [run_estep(t, model, config).lam for t in tasks]
)
train_lam = embed(train_tasks)
themes = latents.task_themes

# Embeddings of same-theme tasks should sit close together in KL.  Each
# task's mean KL to the other tasks of its theme, and to the tasks of the
# other themes, averaged over tasks.
M = len(train_tasks)
within, across = [], []
for theme in np.unique(themes):
    group, rest = train_lam[themes == theme], train_lam[themes != theme]
    # The group's own row (KL 0) is in its mean; n / (n - 1) takes it out.
    within.append(distance_matrix(group, group) * len(group) / (len(group) - 1))
    across.append(distance_matrix(group, rest))
print("mean KL within a theme: %.3f" % np.concatenate(within).mean())
print("mean KL across themes:  %.3f" % np.concatenate(across).mean())

# New tasks drawn from theme A only; selection should pull theme-A tasks
# out of the pool.
theme_a = ThemeModel(planted.mu, planted.sigma, planted.alpha[:1], np.array([1.0]))
test_tasks, _ = generate_synthetic(theme_a, 15, 5, 16, seed=99)
test_lam = embed(test_tasks)

chosen = select_tasks(train_lam, test_lam, 25)
hit = np.mean(themes[chosen] == 0)
print("\nselected 25 of %d pool tasks for the theme-A test batch" % M)
print("fraction actually from theme A: %.2f (pool base rate %.2f)" % (
    hit, np.mean(themes == 0)))
