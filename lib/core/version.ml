let current = "1.16.0"
